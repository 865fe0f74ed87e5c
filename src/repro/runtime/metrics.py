"""Run metrics: commits, latency, view changes, time series.

Measurement conventions (matching §7):

- *Throughput* counts each height once, at the moment the **first** correct
  replica commits it (transactions per second over a window, excluding
  warm-up); a correct commit of another block at that height raises.
- *Latency* is proposal-to-first-commit per block -- the consensus latency
  the paper plots.
- *Time series* bucket committed transactions per second, used for the
  reconfiguration plots (Figure 12).
- Every window is **half-open**, ``[lo, hi)``: an event landing exactly on
  a window edge belongs to the window that *starts* there. Adjacent
  windows (warm-up + measurement, consecutive time-series buckets)
  therefore partition the event stream -- nothing is counted twice and
  nothing is dropped, which is what lets a report split a run's totals
  exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.consensus.block import Block
from repro.errors import ConsensusError
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class CommitRecord:
    """First commit of one height."""

    height: int
    block_hash: str
    time: float
    latency: float
    num_txs: int
    payload_size: int
    first_committer: int


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of pre-sorted values (p in [0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


#: Consensus-latency percentiles (the paper's plots stop at the body of
#: the distribution).
CONSENSUS_PERCENTILES: Tuple[float, ...] = (50, 95)

#: End-to-end client percentiles: tail latency is the product under
#: overload, so the workload engine reports through p99/p999.
E2E_PERCENTILES: Tuple[float, ...] = (50, 95, 99, 99.9)


def percentile_key(p: float) -> str:
    """Stable dict key for a percentile: 50 -> ``p50``, 99.9 -> ``p999``."""
    text = f"{p:g}".replace(".", "")
    return f"p{text}"


def latency_summary(
    values: Sequence[float],
    percentiles: Sequence[float] = CONSENSUS_PERCENTILES,
) -> Dict[str, float]:
    """One stats dict shared by every latency surface.

    ``values`` must be pre-sorted ascending. Empty input yields the same
    key set with zeros, so consumers (reports, schema validation, figure
    code) never branch on presence. The mean is fsum'd and clamped into
    [min, max] so float rounding cannot push it outside the data (three
    identical latencies summed naively can).
    """
    keys = [percentile_key(p) for p in percentiles]
    if not values:
        stats = {"mean": 0.0, "max": 0.0, "count": 0}
        stats.update({key: 0.0 for key in keys})
        return stats
    mean = min(max(math.fsum(values) / len(values), values[0]), values[-1])
    stats = {"mean": mean, "max": values[-1], "count": len(values)}
    stats.update(
        {key: percentile(values, p) for key, p in zip(keys, percentiles)}
    )
    return stats


class LatencyHistogram:
    """Log-bucketed (HDR-style) latency accounting in O(buckets) memory.

    The workload engine observes one latency per committed transaction; at
    the offered loads ``repro capacity`` sweeps (10^6-10^7 txs) the exact
    list-based path costs O(txs) memory plus an O(txs log txs) sort at
    report time. This histogram replaces the list on the *workload/e2e*
    surfaces only -- consensus surfaces keep the exact
    :func:`latency_summary` path so golden reports stay byte-identical.

    Buckets are geometric: bucket ``i`` spans ``[low * g**i, low * g**(i+1))``
    with ``g = 2 ** (1 / buckets_per_octave)``, stored sparsely (only
    occupied buckets take memory), so the footprint is bounded by the
    *dynamic range* of the data, never its volume: latencies spanning
    1 microsecond to ~3 hours fit in < 1100 buckets at the default
    resolution.

    Error model (tested by property test): a percentile is reported as its
    bucket's geometric midpoint clamped into the exact observed
    ``[min, max]``, so any reported percentile ``q`` satisfies
    ``exact / sqrt(g) < q <= exact * sqrt(g)`` for data at or above
    ``low`` -- a guaranteed relative error below
    ``2 ** (1 / (2 * buckets_per_octave)) - 1`` (~1.09% at the default
    ``buckets_per_octave=32``). ``count``/``min``/``max`` are exact;
    ``mean`` is exact up to float-accumulation rounding and clamped into
    ``[min, max]``. Values below ``low`` clamp into bucket 0 (sub-``low``
    resolution is not meaningful for simulated network latencies).

    Determinism: insertion-order independent by construction -- the state
    is a bag of bucket counts plus exact scalars, so summaries are
    identical across execution backends regardless of commit ordering.
    """

    __slots__ = (
        "low", "buckets_per_octave", "_scale", "_log_low",
        "counts", "count", "total", "min", "max",
    )

    def __init__(self, buckets_per_octave: int = 32, low: float = 1e-6):
        if buckets_per_octave < 1:
            raise ValueError(
                f"buckets_per_octave must be >= 1, got {buckets_per_octave}"
            )
        if low <= 0:
            raise ValueError(f"histogram floor must be positive, got {low}")
        self.low = low
        self.buckets_per_octave = buckets_per_octave
        self._scale = buckets_per_octave / math.log(2.0)
        self._log_low = math.log(low)
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    @property
    def relative_error(self) -> float:
        """Guaranteed bound on |reported - exact| / exact per percentile."""
        return 2.0 ** (1.0 / (2.0 * self.buckets_per_octave)) - 1.0

    def _index(self, value: float) -> int:
        if value <= self.low:
            return 0
        return int((math.log(value) - self._log_low) * self._scale)

    def _representative(self, index: int) -> float:
        """Geometric midpoint of a bucket, clamped into the exact range."""
        mid = self.low * 2.0 ** ((index + 0.5) / self.buckets_per_octave)
        return min(max(mid, self.min), self.max)

    def add(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``; the state afterwards
        is bit-equal to ``count`` separate adds."""
        if count < 1:
            raise ValueError(f"histogram count must be >= 1, got {count}")
        index = self._index(value)
        counts = self.counts
        counts[index] = counts.get(index, 0) + count
        self.count += count
        # Float addition rounds at every step: ``value * count`` would not
        # reproduce the total (hence the mean) of adding one by one.
        total = self.total
        for _ in range(count):
            total += value
        self.total = total
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_many(self, values: Sequence[float]) -> None:
        for value in values:
            self.add(value)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (same rank rule as :func:`percentile`)."""
        if not self.count:
            raise ValueError("percentile of empty histogram")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        rank = max(1, math.ceil(p / 100.0 * self.count))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return self._representative(index)
        return self.max  # pragma: no cover - unreachable (seen ends == count)

    def summary(
        self, percentiles: Sequence[float] = CONSENSUS_PERCENTILES
    ) -> Dict[str, float]:
        """Same shape as :func:`latency_summary` (zeros when empty)."""
        keys = [percentile_key(p) for p in percentiles]
        if not self.count:
            stats = {"mean": 0.0, "max": 0.0, "count": 0}
            stats.update({key: 0.0 for key in keys})
            return stats
        mean = min(max(self.total / self.count, self.min), self.max)
        stats = {"mean": mean, "max": self.max, "count": self.count}
        rank_targets = [
            (key, max(1, math.ceil(p / 100.0 * self.count)))
            for key, p in zip(keys, percentiles)
        ]
        seen = 0
        remaining = sorted(rank_targets, key=lambda item: item[1])
        position = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            while position < len(remaining) and remaining[position][1] <= seen:
                stats[remaining[position][0]] = self._representative(index)
                position += 1
            if position == len(remaining):
                break
        return stats

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self.count}, "
            f"buckets={len(self.counts)}, k={self.buckets_per_octave})"
        )


class Metrics:
    """Collector shared by every node of one deployment; ``byzantine`` is
    the live set of Byzantine ids, whose commits are only counted."""

    def __init__(self, sim: Simulator, byzantine: Optional[Set[int]] = None):
        self.sim = sim
        self.byzantine = set() if byzantine is None else byzantine
        self.first_commits: Dict[int, CommitRecord] = {}
        self.commits_per_node: Counter = Counter()
        self.view_changes: List[Tuple[float, int, int]] = []  # (time, node, view)
        self.commit_events: List[Tuple[float, int]] = []  # (time, num_txs)
        # Commit times alone, for bisect-based window slicing: simulated
        # time never goes backwards, so commit_events (and this shadow) are
        # nondecreasing by construction.
        self._commit_times: List[float] = []
        #: Callbacks fired on each height's *first* commit: f(record, block).
        self.commit_listeners: List = []

    # ------------------------------------------------------------------
    # Recording (called by protocol nodes)
    # ------------------------------------------------------------------
    def on_commit(self, node_id: int, block: Block, time: float) -> None:
        """Record a replica committing a block (first correct commit per
        height defines the global record; a later correct one that differs
        raises :class:`~repro.errors.ConsensusError`)."""
        self.commits_per_node[node_id] += 1
        first = self.first_commits.get(block.height)
        if first is not None:
            if first.block_hash != block.hash and node_id not in self.byzantine:
                raise ConsensusError(
                    f"AGREEMENT VIOLATION at height {block.height}: {first.block_hash} "
                    f"by replica {first.first_committer}, {block.hash} by replica "
                    f"{node_id} (view {block.view}) at t={time}"
                )
            return
        if node_id in self.byzantine:
            return
        record = CommitRecord(
            height=block.height,
            block_hash=block.hash,
            time=time,
            latency=time - block.created_at,
            num_txs=block.num_txs,
            payload_size=block.payload_size,
            first_committer=node_id,
        )
        self.first_commits[block.height] = record
        self.commit_events.append((time, block.num_txs))
        self._commit_times.append(time)
        for listener in self.commit_listeners:
            listener(record, block)

    def on_view_change(self, node_id: int, view: int, time: float) -> None:
        """Record one replica advancing to ``view``."""
        self.view_changes.append((time, node_id, view))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def committed_blocks(self) -> int:
        return len(self.first_commits)

    @property
    def max_view(self) -> int:
        if not self.view_changes:
            return 0
        return max(view for _, _, view in self.view_changes)

    def records(self) -> List[CommitRecord]:
        return [self.first_commits[h] for h in sorted(self.first_commits)]

    def _window(
        self, start: Optional[float], end: Optional[float]
    ) -> Tuple[float, float]:
        lo = 0.0 if start is None else start
        hi = self.sim.now if end is None else end
        return lo, hi

    def _window_slice(self, lo: float, hi: float) -> Tuple[int, int]:
        """Index range of commits inside half-open ``[lo, hi)``.

        ``commit_events`` is appended in nondecreasing time order, so the
        window is a contiguous slice found by bisection -- O(log k) instead
        of a linear scan per query (reports and figure generators window
        the same event list many times over).
        """
        times = self._commit_times
        return bisect_left(times, lo), bisect_left(times, hi)

    def throughput_txs(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Committed transactions per second over the half-open ``[start, end)``.

        A commit landing exactly at ``end`` belongs to the *next* window, so
        splitting a run at any instant partitions its transactions exactly
        (nothing double-counted by adjacent warm-up/measurement windows).
        """
        lo, hi = self._window(start, end)
        if hi <= lo:
            return 0.0
        first, last = self._window_slice(lo, hi)
        txs = sum(n for _, n in self.commit_events[first:last])
        return txs / (hi - lo)

    def throughput_blocks(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        lo, hi = self._window(start, end)
        if hi <= lo:
            return 0.0
        first, last = self._window_slice(lo, hi)
        return (last - first) / (hi - lo)

    def latencies(self, start: Optional[float] = None, end: Optional[float] = None) -> List[float]:
        lo, hi = self._window(start, end)
        return sorted(
            rec.latency for rec in self.first_commits.values() if lo <= rec.time < hi
        )

    def latency_stats(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Dict[str, float]:
        """mean / p50 / p95 / max latency over a window (empty -> zeros)."""
        return latency_summary(self.latencies(start, end))

    def timeseries_txs(
        self, bucket: float = 1.0, end: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """(bucket_start, txs/s) series for recovery plots (Figure 12).

        Buckets are half-open ``[i*bucket, (i+1)*bucket)``. An event landing
        exactly on the horizon opens a new bucket -- the series grows instead
        of clamping the event into the last in-range bucket, which would
        inflate that bucket's rate.
        """
        if bucket <= 0:
            raise ValueError(f"non-positive bucket: {bucket}")
        horizon = self.sim.now if end is None else end
        buckets = int(math.ceil(horizon / bucket)) if horizon > 0 else 0
        series = [0.0] * buckets
        for time, txs in self.commit_events:
            index = int(time / bucket)
            while index >= len(series):
                series.append(0.0)
            series[index] += txs
        return [(i * bucket, total / bucket) for i, total in enumerate(series)]

    def commit_gap_after(self, time: float) -> Optional[float]:
        """Time from ``time`` to the next commit -- recovery time (§7.10)."""
        times = self._commit_times
        index = bisect_left(times, time)
        if index == len(times):
            return None
        return times[index] - time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Metrics(blocks={self.committed_blocks}, "
            f"view_changes={len(self.view_changes)})"
        )
