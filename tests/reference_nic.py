"""Reference oracle for the NIC's packed observability logs.

``Nic`` keeps its busy intervals in per-lane ``BusyLog`` array columns and
its byte log as one entry per distinct enqueue instant. :class:`ListLogNic`
is ``Nic`` with the logs it replaced: one ``[start, end]`` list per
coalesced interval and one ``(enqueue time, cumulative bytes)`` tuple per
message. The method bodies are verbatim from before the change; only the
class shell is new. ``tests/test_net_nic.py`` drives both with the same
traffic and requires ``bytes_in``, ``busy_in`` and ``utilization`` to be
equal with ``==`` over every window it asks.
"""

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import List, Tuple

from repro.errors import NetworkError
from repro.net.nic import Nic


class ListLogNic(Nic):
    """``Nic`` with a per-message byte log and list-of-lists busy intervals."""

    __slots__ = ("_lane_intervals", "_bytes_log")

    def __init__(self, sim, name="nic", lanes=1):
        super().__init__(sim, name, lanes)
        #: Per-lane coalesced busy intervals (lanes never overlap themselves).
        self._lane_intervals: List[List[List[float]]] = [[] for _ in range(lanes)]
        #: (enqueue time, cumulative bytes including that message); enqueue
        #: times are nondecreasing, so window queries can bisect.
        self._bytes_log: List[Tuple[float, int]] = []

    def transmit_raw(self, size_bytes: int, bandwidth_bps: float) -> float:
        if size_bytes < 0:
            raise NetworkError(f"negative transmit size: {size_bytes}")
        if bandwidth_bps <= 0:
            raise NetworkError(f"non-positive bandwidth: {bandwidth_bps}")
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
            self._record_busy(lane, start, done)
        self._bytes_log.append((now, self.bytes_sent))
        inflight = self._inflight_done
        while inflight and inflight[0] <= now:
            heapq.heappop(inflight)
        heapq.heappush(inflight, done)
        if len(inflight) > self.max_queue_depth:
            self.max_queue_depth = len(inflight)
        return done

    def _record_busy(self, lane: int, start: float, end: float) -> None:
        intervals = self._lane_intervals[lane]
        # FIFO per lane: a message starting exactly when its predecessor
        # finished extends the open interval instead of opening a new one.
        if intervals and start <= intervals[-1][1]:
            if end > intervals[-1][1]:
                intervals[-1][1] = end
        else:
            intervals.append([start, end])

    def busy_in(self, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        total = 0.0
        for intervals in self._lane_intervals:
            index = bisect_right(intervals, start, key=lambda iv: iv[1])
            for i in range(index, len(intervals)):
                s, e = intervals[i]
                if s >= end:
                    break
                total += min(e, end) - max(s, start)
        return total

    def bytes_in(self, start: float, end: float) -> int:
        if end <= start or not self._bytes_log:
            return 0
        log = self._bytes_log
        lo = bisect_left(log, (start, -1))
        hi = bisect_left(log, (end, -1))
        if hi <= lo:
            return 0
        before = log[lo - 1][1] if lo else 0
        return log[hi - 1][1] - before
