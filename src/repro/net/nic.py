"""Per-process network interface: FIFO serialization at link bandwidth.

This is where the paper's *sending time* (§4.3) physically happens: a node
sending a block to its ``m`` children occupies its uplink for
``m * block_size / bandwidth`` seconds, which is why a tree's root finishes
its dissemination phase ``(N-1)/m`` times sooner than a star's leader.

Messages are serialized strictly in enqueue order. Queueing delay (time a
message waits behind earlier traffic) is tracked so experiments can observe
over-pipelining: a proposal interval shorter than the sending time makes
the backlog grow without bound.

Serialization busy time is checkpointed per lane in a coalesced
:class:`~repro.sim.cpu.BusyLog` (the CPU's), and bytes are logged as a
cumulative series at enqueue instants, so the observability layer can ask
for the exact link busy fraction and bytes carried over an arbitrary
measurement window (half-open, like every window in this library). Both
logs are packed ``array`` columns with one entry per busy interval or per
distinct enqueue instant: back-to-back traffic coalesces, so a saturated
uplink costs O(1) interval memory, and a fan-out of m messages enqueued in
one instant costs one byte-log entry, not m. Folding an instant's messages
into one entry is exact: all of them fall on the same side of any window
edge, so :meth:`Nic.bytes_in` returns the same integer as a per-message log.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from typing import List, Optional

from repro.errors import NetworkError
from repro.sim.cpu import BusyLog
from repro.sim.engine import Simulator


class Nic:
    """Outgoing interface of one process.

    Bandwidth is supplied per transmit call (heterogeneous deployments have
    different rates per destination cluster); serialization is FIFO over
    ``lanes`` parallel queues. ``lanes=1`` (the default) is the strict
    per-process-uplink model the §4.3 formulas assume: one message at a
    time at the scenario's link rate. Higher lane counts approximate the
    paper's physical testbed, where NetEm shapes each *pair* to the link
    rate but a machine's NIC carries several such streams concurrently --
    the knob the uplink-model ablation bench sweeps.
    """

    __slots__ = (
        "sim", "name", "lanes", "_lane_busy_until", "_lane_logs",
        "_byte_times", "_byte_totals", "_inflight_done", "bytes_sent",
        "messages_sent", "total_queueing_delay", "total_tx_time",
        "max_backlog", "max_queue_depth", "_created_at",
    )

    def __init__(self, sim: Simulator, name: str = "nic", lanes: int = 1):
        if lanes < 1:
            raise NetworkError(f"need at least one lane, got {lanes}")
        self.sim = sim
        self.name = name
        self.lanes = lanes
        self._lane_busy_until = [0.0] * lanes
        #: Per-lane coalesced busy intervals (lanes never overlap themselves).
        self._lane_logs = [BusyLog() for _ in range(lanes)]
        #: Distinct enqueue instants (strictly increasing, so window queries
        #: can bisect) and the cumulative bytes enqueued up to and including
        #: each.
        self._byte_times = array("d")
        self._byte_totals = array("q")
        #: Heap of in-flight serialization completion times -- sized lazily
        #: at enqueue, giving the exact concurrent queue depth.
        self._inflight_done: List[float] = []
        self.bytes_sent = 0
        self.messages_sent = 0
        self.total_queueing_delay = 0.0
        self.total_tx_time = 0.0
        self.max_backlog = 0.0
        #: High-water mark of messages simultaneously queued or serializing.
        self.max_queue_depth = 0
        self._created_at = sim.now

    def transmit_raw(self, size_bytes: int, bandwidth_bps: float) -> float:
        """Enqueue ``size_bytes`` for serialization: charge the NIC and
        return the instant the last bit leaves the interface.

        Scheduling is the caller's: the fabric schedules its own
        handle-free completion callback per message, carrying the
        precomputed propagation delay. Infinite bandwidth (``math.inf``)
        serializes instantly -- used for the paper's "idealized infinite
        bandwidth" latency floor (§7.6).
        """
        if not size_bytes >= 0:  # NaN fails too
            raise NetworkError(f"negative or NaN transmit size: {size_bytes}")
        if not bandwidth_bps > 0:  # inf passes: serializes instantly
            raise NetworkError(f"non-positive or NaN bandwidth: {bandwidth_bps}")
        now = self.sim.now
        tx_time = 0.0 if math.isinf(bandwidth_bps) else size_bytes * 8.0 / bandwidth_bps
        lane = min(range(self.lanes), key=self._lane_busy_until.__getitem__)
        start = max(now, self._lane_busy_until[lane])
        queueing = start - now
        done = start + tx_time
        self._lane_busy_until[lane] = done
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        self.total_queueing_delay += queueing
        self.total_tx_time += tx_time
        self.max_backlog = max(self.max_backlog, done - now)
        if tx_time > 0.0:
            self._lane_logs[lane].add(start, done)
        self._log_bytes(now)
        inflight = self._inflight_done
        while inflight and inflight[0] <= now:
            heapq.heappop(inflight)
        heapq.heappush(inflight, done)
        if len(inflight) > self.max_queue_depth:
            self.max_queue_depth = len(inflight)
        return done

    def transmit_batch(
        self, size_bytes: int, bandwidths: List[float]
    ) -> List[float]:
        """Chain one ``size_bytes`` serialization per entry of ``bandwidths``
        in a single pass; returns the per-message completion times.

        This is the paper's §4.3 sending time made literal: a parent
        multicasting a block to ``m`` children occupies its uplink for the
        ``m`` serializations back-to-back. Every piece of NIC state (lane
        choice, busy intervals, byte log, queue-depth high-water, counters)
        is updated exactly as ``m`` sequential :meth:`transmit_raw` calls
        in the same order would -- the multicast equivalence property test
        pins this bit-for-bit.
        """
        if not size_bytes >= 0:  # NaN fails too
            raise NetworkError(f"negative or NaN transmit size: {size_bytes}")
        # Checked before the first is charged: a rejected batch leaves the
        # NIC untouched.
        for bandwidth_bps in bandwidths:
            if not bandwidth_bps > 0:  # inf passes: serializes instantly
                raise NetworkError(f"non-positive or NaN bandwidth: {bandwidth_bps}")
        now = self.sim.now
        lanes = self.lanes
        busy = self._lane_busy_until
        logs = self._lane_logs
        inflight = self._inflight_done
        heappush = heapq.heappush
        heappop = heapq.heappop
        size_bits = size_bytes * 8.0
        done_times: List[float] = []
        max_backlog = self.max_backlog
        max_depth = self.max_queue_depth
        for bandwidth_bps in bandwidths:
            tx_time = 0.0 if math.isinf(bandwidth_bps) else size_bits / bandwidth_bps
            lane = 0 if lanes == 1 else min(range(lanes), key=busy.__getitem__)
            start = busy[lane]
            if start < now:
                start = now
            done = start + tx_time
            busy[lane] = done
            self.total_queueing_delay += start - now
            self.total_tx_time += tx_time
            if done - now > max_backlog:
                max_backlog = done - now
            if tx_time > 0.0:
                logs[lane].add(start, done)
            while inflight and inflight[0] <= now:
                heappop(inflight)
            heappush(inflight, done)
            if len(inflight) > max_depth:
                max_depth = len(inflight)
            done_times.append(done)
        if done_times:
            self.bytes_sent += size_bytes * len(done_times)
            self._log_bytes(now)  # once: the whole batch shares one instant
        self.messages_sent += len(done_times)
        self.max_backlog = max_backlog
        self.max_queue_depth = max_depth
        return done_times

    def _log_bytes(self, now: float) -> None:
        """Log ``bytes_sent`` as the cumulative total enqueued up to ``now``,
        overwriting the last entry if it is for the same instant."""
        times = self._byte_times
        if times and times[-1] == now:
            self._byte_totals[-1] = self.bytes_sent
        else:
            times.append(now)
            self._byte_totals.append(self.bytes_sent)

    @property
    def backlog(self) -> float:
        """Seconds until a newly enqueued message could start serializing."""
        return max(0.0, min(self._lane_busy_until) - self.sim.now)

    @property
    def busy(self) -> bool:
        return any(t > self.sim.now for t in self._lane_busy_until)

    def busy_in(self, start: float, end: float) -> float:
        """Exact lane-seconds spent serializing inside ``[start, end)``.

        Sums over lanes, so the result is bounded by ``lanes * (end-start)``.
        Traffic *scheduled* past the current instant still counts -- lane
        occupancy is decided at enqueue time, which is what the sending-time
        formulas of §4.3 model.
        """
        if end <= start:
            return 0.0
        total = 0.0
        for log in self._lane_logs:
            total = log.busy_in(start, end, total)
        return total

    def bytes_in(self, start: float, end: float) -> int:
        """Bytes enqueued for serialization inside ``[start, end)``."""
        times = self._byte_times
        if end <= start or not times:
            return 0
        lo = bisect_left(times, start)
        hi = bisect_left(times, end)
        if hi <= lo:
            return 0
        totals = self._byte_totals
        before = totals[lo - 1] if lo else 0
        return totals[hi - 1] - before

    def utilization(self, since: float = 0.0, until: Optional[float] = None) -> float:
        """Fraction of aggregate lane capacity spent serializing over the
        half-open window ``[since, until)`` (``until`` defaults to now).

        Exact windowed accounting (in-window busy over in-window capacity),
        so no clamp is needed; values can only exceed 1.0 for a window
        ending before already-scheduled traffic drains, which is genuine
        oversubscription worth seeing, not a bug to mask.
        """
        hi = self.sim.now if until is None else until
        lo = max(since, self._created_at)
        elapsed = (hi - lo) * self.lanes
        if elapsed <= 0:
            return 0.0
        return self.busy_in(lo, hi) / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Nic({self.name!r}, backlog={self.backlog:.4f}s)"
