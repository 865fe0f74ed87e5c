"""Workload engine: aggregate arrival processes for huge client populations.

The ROADMAP's north star is serving heavy traffic from *millions* of
users; spawning one simulator process per user is hopeless at that scale.
This module exploits the superposition property of Poisson processes: the
union of N independent Poisson streams at rate ``r`` is one Poisson stream
at rate ``N*r``, so an entire client *class* (a population sharing a rate,
a load shape, and an SLO) collapses into a single arrival process whose
cost is O(arrivals), not O(users).

Pieces, bottom up:

- :class:`LoadShape` -- composable deterministic rate modulation (steady /
  diurnal / burst / flash-crowd), multiplied together per class.
- :class:`MmppModulator` -- a Markov-modulated Poisson process layered on
  top: discrete rate states with exponential dwell times, giving the
  bursty, autocorrelated traffic that plain Poisson misses.
- :class:`ZipfSampler` -- rank-skewed key popularity driving the
  ``app/kvstore`` state machine (real workloads hammer hot keys).
- :class:`ClientClassSpec` / :class:`WorkloadSpec` -- frozen, declarative
  descriptions that lower from scenario-pack TOML (``from_mapping``) and
  canonicalise into sweep-engine cache keys.
- :class:`WorkloadHarness` -- the client harness: one simulator loop per
  *class*, submitting chunked transactions over the network to the
  leader's mempool (admission control, commit notifications), tracking
  per-class SLO attainment.

Determinism: every random draw comes from a ``random.Random`` seeded from
the run seed and the class name, so arrival counts are reproducible across
runs and execution backends (the sweep engine's process pool included).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.runtime.clients import (
    MEMPOOL_POLICIES,
    MempoolWorkload,
    TxChunk,
    _ClientAwareNetem,
)

__all__ = [
    "LoadShape",
    "MmppModulator",
    "ZipfSampler",
    "ClientClassSpec",
    "WorkloadSpec",
    "WorkloadHarness",
    "make_workload_factory",
    "saturation_knee",
    "capacity_sweep",
]


#: Transactions per flyweight chunk: a tick at a very high rate ships one
#: :class:`~repro.runtime.clients.TxChunk` per this many transactions
#: (payload partitioning only -- the per-tick network send and its byte
#: size are unchanged, and so is every admission outcome).
INGEST_CHUNK_TXS = 8192


# ----------------------------------------------------------------------
# Load shapes
# ----------------------------------------------------------------------

SHAPE_KINDS = ("steady", "diurnal", "burst", "flash")


@dataclass(frozen=True)
class LoadShape:
    """One deterministic rate multiplier over simulated time.

    Kinds:

    - ``steady``: constant 1.0 (the identity; useful as a default).
    - ``diurnal``: raised-cosine day/night cycle between ``low`` and 1.0
      over ``period`` seconds, starting at the trough.
    - ``burst``: square pulse of ``factor`` over ``[start, start+duration)``.
    - ``flash``: flash crowd -- instant spike to ``factor`` at ``start``,
      decaying exponentially back to 1.0 with time constant ``decay``.

    Shapes compose by multiplication (see :meth:`compose`), so a diurnal
    baseline with a lunchtime flash crowd is just two entries.
    """

    kind: str = "steady"
    period: float = 86400.0
    low: float = 0.25
    start: float = 0.0
    duration: float = 0.0
    factor: float = 1.0
    decay: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in SHAPE_KINDS:
            raise ConfigError(
                f"unknown load shape {self.kind!r}; expected one of {SHAPE_KINDS}"
            )
        if self.kind == "diurnal" and (self.period <= 0 or not 0 <= self.low <= 1):
            raise ConfigError(
                f"diurnal shape needs period > 0 and 0 <= low <= 1, "
                f"got period={self.period}, low={self.low}"
            )
        if self.kind in ("burst", "flash") and self.factor < 0:
            raise ConfigError(f"negative shape factor: {self.factor}")
        if self.kind == "flash" and self.decay <= 0:
            raise ConfigError(f"flash decay must be positive, got {self.decay}")

    def multiplier(self, t: float) -> float:
        if self.kind == "steady":
            return 1.0
        if self.kind == "diurnal":
            phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / self.period))
            return self.low + (1.0 - self.low) * phase
        if self.kind == "burst":
            if self.start <= t < self.start + self.duration:
                return self.factor
            return 1.0
        # flash
        if t < self.start:
            return 1.0
        return 1.0 + (self.factor - 1.0) * math.exp(-(t - self.start) / self.decay)

    @staticmethod
    def compose(shapes: Sequence["LoadShape"], t: float) -> float:
        product = 1.0
        for shape in shapes:
            product *= shape.multiplier(t)
        return product

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "LoadShape":
        allowed = {"kind", "period", "low", "start", "duration", "factor", "decay"}
        unknown = set(mapping) - allowed
        if unknown:
            raise ConfigError(
                f"unknown load-shape fields {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        return cls(**{key: mapping[key] for key in mapping})

    def canonical(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "period": self.period,
            "low": self.low,
            "start": self.start,
            "duration": self.duration,
            "factor": self.factor,
            "decay": self.decay,
        }


# ----------------------------------------------------------------------
# MMPP modulation
# ----------------------------------------------------------------------


class MmppModulator:
    """Markov-modulated rate multiplier (an MMPP on top of the base rate).

    ``states`` is a sequence of ``(multiplier, mean_dwell_seconds)`` pairs;
    the process starts in state 0 and cycles through states with
    exponentially distributed dwell times drawn from ``rng``. Cycling (vs a
    full transition matrix) already captures the canonical ON/OFF and
    calm/storm traffic patterns with a fraction of the spec surface.

    ``multiplier(t)`` must be called with nondecreasing ``t`` (simulated
    time, which never goes backwards) -- state history is generated lazily.
    """

    def __init__(
        self, states: Sequence[Tuple[float, float]], rng: random.Random
    ):
        if not states:
            raise ConfigError("MMPP needs at least one (multiplier, dwell) state")
        for multiplier, dwell in states:
            if multiplier < 0 or dwell <= 0:
                raise ConfigError(
                    f"MMPP state needs multiplier >= 0 and dwell > 0, "
                    f"got ({multiplier}, {dwell})"
                )
        self.states = [(float(m), float(d)) for m, d in states]
        self.rng = rng
        self._index = 0
        self._next_switch = rng.expovariate(1.0 / self.states[0][1])

    def multiplier(self, t: float) -> float:
        while t >= self._next_switch:
            self._index = (self._index + 1) % len(self.states)
            dwell = self.states[self._index][1]
            self._next_switch += self.rng.expovariate(1.0 / dwell)
        return self.states[self._index][0]


# ----------------------------------------------------------------------
# Zipfian key skew
# ----------------------------------------------------------------------


class ZipfSampler:
    """Zipf(s) ranks over ``keyspace`` keys via a precomputed CDF + bisect.

    Rank ``k`` (1-based) has probability proportional to ``1 / k**s``;
    sampling is O(log keyspace) per draw after an O(keyspace) setup. With
    ``s = 0`` this degrades gracefully to uniform.
    """

    def __init__(self, keyspace: int, s: float, rng: random.Random):
        if keyspace < 1:
            raise ConfigError(f"keyspace must be >= 1, got {keyspace}")
        if s < 0:
            raise ConfigError(f"negative zipf exponent: {s}")
        self.keyspace = keyspace
        self.s = s
        self.rng = rng
        weights = [1.0 / (rank ** s) for rank in range(1, keyspace + 1)]
        total = math.fsum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against fp undershoot

    def sample(self) -> int:
        """Draw a 0-based key index (0 = hottest key)."""
        return bisect_left(self._cdf, self.rng.random())

    def sample_batch(self, count: int) -> List[int]:
        """Draw ``count`` key indices in one pass.

        Draw-order identical to ``count`` sequential :meth:`sample` calls
        (same rng stream), but with the CDF, the rng method, and the
        bisect hoisted out of the loop -- the per-draw cost is one uniform
        plus one C-level bisect, nothing else.
        """
        cdf = self._cdf
        rand = self.rng.random
        search = bisect_left
        return [search(cdf, rand()) for _ in range(count)]


# ----------------------------------------------------------------------
# Declarative specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClientClassSpec:
    """One client population sharing a rate, a load shape, and an SLO.

    ``population * rate_per_user`` is the class's steady aggregate offered
    rate in transactions per second; shapes and MMPP modulate it over time.
    ``slo_ms`` is the end-to-end latency target judged at
    ``slo_percentile`` (per-class attainment lands in the run report).
    """

    name: str
    population: int
    rate_per_user: float
    shapes: Tuple[LoadShape, ...] = (LoadShape(),)
    mmpp: Tuple[Tuple[float, float], ...] = ()
    slo_ms: float = 1000.0
    slo_percentile: float = 99.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("client class needs a name")
        if self.population < 1:
            raise ConfigError(f"population must be >= 1, got {self.population}")
        if self.rate_per_user <= 0:
            raise ConfigError(
                f"rate_per_user must be positive, got {self.rate_per_user}"
            )
        if self.slo_ms <= 0 or not 0 < self.slo_percentile <= 100:
            raise ConfigError(
                f"SLO needs slo_ms > 0 and slo_percentile in (0, 100], got "
                f"({self.slo_ms}, {self.slo_percentile})"
            )

    @property
    def steady_rate(self) -> float:
        """Aggregate offered transactions/second before modulation."""
        return self.population * self.rate_per_user

    def rate_at(self, t: float) -> float:
        return self.steady_rate * LoadShape.compose(self.shapes, t)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ClientClassSpec":
        allowed = {
            "name", "population", "rate_per_user", "shapes", "mmpp",
            "slo_ms", "slo_percentile",
        }
        unknown = set(mapping) - allowed
        if unknown:
            raise ConfigError(
                f"unknown client-class fields {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        kwargs: Dict[str, Any] = {
            key: mapping[key] for key in mapping if key not in ("shapes", "mmpp")
        }
        if "shapes" in mapping:
            kwargs["shapes"] = tuple(
                LoadShape.from_mapping(shape) for shape in mapping["shapes"]
            )
        if "mmpp" in mapping:
            kwargs["mmpp"] = tuple(
                (float(m), float(d)) for m, d in mapping["mmpp"]
            )
        return cls(**kwargs)

    def canonical(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "population": self.population,
            "rate_per_user": self.rate_per_user,
            "shapes": [shape.canonical() for shape in self.shapes],
            "mmpp": [list(state) for state in self.mmpp],
            "slo_ms": self.slo_ms,
            "slo_percentile": self.slo_percentile,
        }


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything the workload engine needs for one run, declaratively.

    ``capacity_txs`` / ``policy`` configure leader admission control (the
    bounded :class:`~repro.runtime.clients.MempoolWorkload`);
    ``keyspace`` / ``zipf_s`` configure key skew for the KV application;
    ``batch_interval`` is the arrival-accounting tick (smaller = finer
    open-loop granularity, more simulator events).
    """

    classes: Tuple[ClientClassSpec, ...]
    keyspace: int = 1024
    zipf_s: float = 0.99
    capacity_txs: Optional[int] = None
    policy: str = "drop"
    batch_interval: float = 0.1
    jitter: bool = True

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigError("workload needs at least one client class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate client class names: {names}")
        if self.policy not in MEMPOOL_POLICIES:
            raise ConfigError(
                f"unknown mempool policy {self.policy!r}; "
                f"expected one of {MEMPOOL_POLICIES}"
            )
        if self.capacity_txs is not None and self.capacity_txs < 1:
            raise ConfigError(
                f"mempool capacity must be >= 1, got {self.capacity_txs}"
            )
        if self.batch_interval <= 0:
            raise ConfigError(
                f"batch_interval must be positive, got {self.batch_interval}"
            )
        if self.keyspace < 1 or self.zipf_s < 0:
            raise ConfigError(
                f"need keyspace >= 1 and zipf_s >= 0, got "
                f"({self.keyspace}, {self.zipf_s})"
            )

    @property
    def total_steady_rate(self) -> float:
        return sum(cls.steady_rate for cls in self.classes)

    @property
    def total_population(self) -> int:
        return sum(cls.population for cls in self.classes)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "WorkloadSpec":
        allowed = {
            "classes", "keyspace", "zipf_s", "capacity_txs", "policy",
            "batch_interval", "jitter",
        }
        unknown = set(mapping) - allowed
        if unknown:
            raise ConfigError(
                f"unknown workload fields {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        if "classes" not in mapping:
            raise ConfigError("workload mapping needs a 'classes' list")
        kwargs: Dict[str, Any] = {
            key: mapping[key] for key in mapping if key != "classes"
        }
        kwargs["classes"] = tuple(
            ClientClassSpec.from_mapping(entry) for entry in mapping["classes"]
        )
        return cls(**kwargs)

    def canonical(self) -> Dict[str, Any]:
        """Plain-data form for sweep cache keys (stable across processes)."""
        return {
            "classes": [cls.canonical() for cls in self.classes],
            "keyspace": self.keyspace,
            "zipf_s": self.zipf_s,
            "capacity_txs": self.capacity_txs,
            "policy": self.policy,
            "batch_interval": self.batch_interval,
            "jitter": self.jitter,
        }


def saturation_knee(
    points: Sequence[Mapping[str, Any]], goodput_threshold: float = 0.9
) -> int:
    """Index of the saturation knee in an offered-load sweep.

    ``points`` are per-load-level dicts (ascending offered load) carrying
    ``goodput`` (committed / generated) and ``slo_met``. The knee is the
    highest load level still committing at least ``goodput_threshold`` of
    what clients generated *with its SLO met*; -1 if even the lightest
    level fails (the topology cannot serve the lightest load tested).
    """
    knee = -1
    for index, point in enumerate(points):
        if point["goodput"] >= goodput_threshold and point["slo_met"]:
            knee = index
    return knee


def capacity_sweep(
    deployment,
    users: int,
    rate_per_user: float,
    levels: int,
    max_load_factor: float = 2.0,
    slo_ms: float = 1000.0,
    capacity_txs: Optional[int] = None,
    policy: str = "drop",
    goodput_threshold: float = 0.9,
    runner=None,
) -> Tuple[List[Dict[str, Any]], int, List[Any]]:
    """How many users fit ``deployment``: an offered-load sweep.

    ``deployment`` is an :class:`~repro.runtime.sweep.ExperimentSpec`
    without a workload. Load level ``i`` of ``levels`` gives it one client
    class of ``users * max_load_factor * (i + 1) / levels`` users, each
    offering ``rate_per_user`` tx/s, behind a leader mempool of
    ``capacity_txs`` with overflow ``policy``. Returns ``(points, knee,
    results)``: one point per level (offered and committed load, drops,
    end-to-end latency, ``goodput``, and ``slo_met`` when p99 is within
    ``slo_ms``), the :func:`saturation_knee` index over them, and the
    results in level order. ``runner`` is the
    :class:`~repro.runtime.sweep.SweepRunner` to use (serial, uncached by
    default).
    """
    from dataclasses import replace

    from repro.runtime.sweep import SweepRunner

    populations = []
    for index in range(levels):
        factor = max_load_factor * (index + 1) / levels
        populations.append(max(1, int(users * factor)))
    specs = [
        replace(
            deployment,
            workload=WorkloadSpec(
                classes=(
                    ClientClassSpec(
                        name="users",
                        population=population,
                        rate_per_user=rate_per_user,
                        slo_ms=slo_ms,
                    ),
                ),
                capacity_txs=capacity_txs,
                policy=policy,
            ),
        )
        for population in populations
    ]
    results = (runner or SweepRunner()).run(specs)
    points = []
    for population, result in zip(populations, results):
        totals = result.workload["totals"]
        generated = totals["generated"]
        latency = totals["latency"]
        points.append({
            "users": population,
            "offered_rate_txs": totals["offered_rate_txs"],
            "generated": generated,
            "committed": totals["committed"],
            "dropped": totals["dropped"],
            "drop_rate": totals["drop_rate"],
            "goodput": totals["committed"] / generated if generated else 0.0,
            "latency": latency,
            "slo_met": latency["p99"] <= slo_ms / 1000.0,
        })
    return points, saturation_knee(points, goodput_threshold), results


def make_workload_factory(spec: WorkloadSpec, config):
    """Per-node mempool factory honouring the spec's admission control."""

    def factory(node_id: int) -> MempoolWorkload:
        return MempoolWorkload(
            config, capacity_txs=spec.capacity_txs, policy=spec.policy
        )

    return factory


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


@dataclass
class _ClassState:
    """Mutable per-class accounting (one per ClientClassSpec).

    Latencies live in a :class:`LatencyHistogram` (O(buckets), not
    O(committed)); submission times are recorded per *tick* as parallel
    ``(start_seq, time)`` epoch arrays -- every transaction of one tick
    shares a submit instant, so a commit recovers its submit time with one
    bisect over O(ticks) state instead of an O(generated) per-tx dict.
    """

    spec: ClientClassSpec
    client_id: int
    generated: int = 0
    within_slo: int = 0
    slo_target_s: float = 0.0
    hist: "LatencyHistogram" = field(default_factory=lambda: _new_histogram())
    submit_seqs: List[int] = field(default_factory=list)
    submit_times: List[float] = field(default_factory=list)


def _new_histogram():
    from repro.runtime.metrics import LatencyHistogram

    return LatencyHistogram()


class WorkloadHarness:
    """Client populations (§2's clients) submitting over the network.

    One simulator loop per client *class* (not per user): each tick
    integrates the class's modulated rate into an expected arrival count
    (fractional backlog carried forward, optional gaussian jitter -- the
    N(lambda, lambda) approximation of Poisson counts, exact in
    distribution as lambda grows) and ships that many transactions, as
    :class:`~repro.runtime.clients.TxChunk` runs, to the replica the class
    currently believes is the leader. Replica mempools
    (:class:`~repro.runtime.clients.MempoolWorkload`) drain them into
    blocks; commit notifications close the loop per class, so SLO
    attainment is judged on end-to-end (submit-to-commit) latency.
    Transactions addressed to a deposed leader are simply lost -- clients
    do not retransmit (tracked in :attr:`lost_estimate`).

    Class ``i`` submits as process ``n + i``. When ``registry`` is given,
    every transaction carries a KV write whose key is Zipf-skewed over the
    spec's keyspace, driving the ``app/kvstore`` state machine with
    realistic hot-key traffic.

    The harness registers itself as ``cluster.workload_harness`` so the
    observability layer can attach :meth:`summary` to the run report.
    """

    def __init__(self, cluster, spec: WorkloadSpec, registry=None, seed: int = 0):
        self.cluster = cluster
        self.spec = spec
        self.registry = registry
        self.seed = seed
        self.classes: List[_ClassState] = [
            _ClassState(
                spec=cls,
                client_id=cluster.n + index,
                slo_target_s=cls.slo_ms / 1000.0,
            )
            for index, cls in enumerate(spec.classes)
        ]
        self._class_by_client = {
            state.client_id: state for state in self.classes
        }
        self._zipf = ZipfSampler(
            spec.keyspace,
            spec.zipf_s,
            random.Random(f"workload-keys:{seed}"),
        )
        self._latency_hist = _new_histogram()
        network = cluster.network
        # Idempotent: a second harness on the same cluster must not re-map
        # already-mapped client ids.
        if not isinstance(network.netem, _ClientAwareNetem):
            network.netem = _ClientAwareNetem(network.netem, cluster.n)
        for state in self.classes:
            network.register(state.client_id)
        cluster.metrics.commit_listeners.append(self._on_commit)
        cluster.workload_harness = self

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one submission loop per client class."""
        from repro.consensus.tags import CLIENT_TX_TAG
        from repro.sim.process import Sleep, spawn

        def class_loop(state: _ClassState):
            cls = state.spec
            rng = random.Random(f"workload:{self.seed}:{cls.name}")
            mmpp = MmppModulator(cls.mmpp, rng) if cls.mmpp else None
            interval = self.spec.batch_interval
            jitter = self.spec.jitter
            chunk_txs = INGEST_CHUNK_TXS
            tx_size = self.cluster.config.tx_size
            client_id = state.client_id
            sim = self.cluster.sim
            network_send = self.cluster.network.send
            backlog = 0.0
            seq = 0
            while True:
                yield Sleep(interval)
                now = sim.now
                rate = cls.rate_at(now)
                if mmpp is not None:
                    rate *= mmpp.multiplier(now)
                expected = rate * interval
                if jitter and expected > 0:
                    expected = max(0.0, rng.gauss(expected, expected ** 0.5))
                backlog += expected
                count = int(backlog)
                backlog -= count
                if count == 0:
                    continue
                if self.registry is not None:
                    self._record_ops(state, seq, count)
                batch: List[TxChunk] = []
                start = seq
                end = seq + count
                while start < end:
                    take = min(chunk_txs, end - start)
                    batch.append(TxChunk(client_id, start, take, tx_size, now))
                    start += take
                state.generated += count
                state.submit_seqs.append(seq)
                state.submit_times.append(now)
                seq = end
                leader = self._current_leader()
                network_send(
                    client_id, leader, CLIENT_TX_TAG, batch,
                    size=count * tx_size,
                )

        for state in self.classes:
            spawn(
                self.cluster.sim,
                class_loop(state),
                name=f"workload-{state.spec.name}",
            )

    def _current_leader(self) -> int:
        views = [
            node.view for node in self.cluster.nodes if not node.stopped
        ] or [0]
        return self.cluster.policy.leader_of(max(max(views), 0))

    def _record_ops(self, state: _ClassState, seq: int, count: int) -> None:
        """Attach one Zipf-keyed KV write per transaction of a tick.

        Keys come from one batched draw (same rng stream and draw order as
        ``count`` sequential draws, pinned by the arrival-sequence test).
        """
        from repro.app.kvstore import KvOp

        record = self.registry.record
        name = state.spec.name
        client_id = state.client_id
        for offset, key_index in enumerate(self._zipf.sample_batch(count)):
            tx_seq = seq + offset
            record(
                (client_id, tx_seq),
                KvOp(kind="set", key=f"k{key_index}", value=f"{name}s{tx_seq}"),
            )

    def _on_commit(self, record, block) -> None:
        """Account the block's transactions one *run* at a time.

        An accounted run is a stretch of ids of one client inside one
        tick's ``[submit_seqs[i], submit_seqs[i + 1])`` epoch: its
        transactions share a submit time, hence a latency, so each of the
        block's ``tx_runs`` costs one epoch lookup and the histograms take
        an accounted run as one weighted add. A run that starts inside the
        open epoch of the same client extends it; one that crosses an epoch
        boundary is split there. Unknown clients, and the part of a run
        before the client's first epoch, are skipped.
        """
        commit_time = record.time
        by_client = self._class_by_client
        run_client = state = None
        lo = hi = count = 0  # the accounted run: ``count`` ids in [lo, hi)
        latency = 0.0
        for run in block.tx_runs:
            client_id = run.client_id
            seq = run.start_seq
            end = seq + run.count
            while seq < end:
                if client_id == run_client and lo <= seq < hi:
                    take = min(end, hi) - seq
                    count += take
                    seq += take
                    continue
                if count:
                    self._account(state, latency, count)
                run_client, lo, hi, count = client_id, 0, 0, 0
                state = by_client.get(client_id)
                if state is None:
                    break
                seqs = state.submit_seqs
                index = bisect_right(seqs, seq) - 1
                if index < 0:  # skip to the first epoch, if there is one
                    seq = min(end, seqs[0]) if seqs else end
                    continue
                lo = seqs[index]
                hi = seqs[index + 1] if index + 1 < len(seqs) else math.inf
                latency = commit_time - state.submit_times[index]
        if count:
            self._account(state, latency, count)

    def _account(self, state: _ClassState, latency: float, count: int) -> None:
        state.hist.add(latency, count)
        if latency <= state.slo_target_s:
            state.within_slo += count
        self._latency_hist.add(latency, count)

    # ------------------------------------------------------------------
    def _mempool_counters(self) -> Tuple[Dict[int, int], Dict[int, int], int]:
        """(admitted, dropped) per client id + total offered, summed over
        every node's mempool (transactions to deposed leaders land in a
        stopped node's mempool; they still count as offered)."""
        admitted: Dict[int, int] = {}
        dropped: Dict[int, int] = {}
        offered = 0
        for node in self.cluster.nodes:
            mempool = node.workload
            if mempool is None:  # saturated node: no client path
                continue
            offered += mempool.offered
            for client_id, count in mempool.admitted_by_client.items():
                admitted[client_id] = admitted.get(client_id, 0) + count
            for client_id, count in mempool.dropped_by_client.items():
                dropped[client_id] = dropped.get(client_id, 0) + count
        return admitted, dropped, offered

    # ------------------------------------------------------------------
    @property
    def committed_txs(self) -> int:
        return self._latency_hist.count

    @property
    def lost_estimate(self) -> int:
        """Generated transactions not (yet) committed -- in flight,
        shed by admission control, or lost to deposed leaders."""
        generated = sum(state.generated for state in self.classes)
        return generated - self._latency_hist.count

    def e2e_latency_stats(self) -> Dict[str, float]:
        """End-to-end (submit-to-commit) latency summary with tail
        percentiles: :func:`~repro.runtime.metrics.latency_summary`'s key
        set, from the histogram (see :class:`LatencyHistogram` for the
        error model)."""
        from repro.runtime.metrics import E2E_PERCENTILES

        return self._latency_hist.summary(E2E_PERCENTILES)

    def summary(self) -> Dict[str, Any]:
        """Deterministic per-class + total accounting for the run report.

        Conservation laws the tests pin down: per class,
        ``admitted + dropped <= generated`` (the difference is in flight or
        lost to deposed leaders), and across the mempools
        ``offered == admitted + dropped (+ still-deferred)``.
        """
        from repro.runtime.metrics import E2E_PERCENTILES

        admitted_by, dropped_by, mempool_offered = self._mempool_counters()
        classes = []
        for state in self.classes:
            cls = state.spec
            stats = state.hist.summary(E2E_PERCENTILES)
            committed = state.hist.count
            if committed:
                observed = state.hist.percentile(cls.slo_percentile)
                attainment = state.within_slo / committed
                slo_met = observed * 1000.0 <= cls.slo_ms
            else:
                observed = 0.0
                attainment = 0.0
                slo_met = False
            admitted = admitted_by.get(state.client_id, 0)
            dropped = dropped_by.get(state.client_id, 0)
            classes.append({
                "name": cls.name,
                "population": cls.population,
                "steady_rate_txs": cls.steady_rate,
                "generated": state.generated,
                "admitted": admitted,
                "dropped": dropped,
                "committed": committed,
                "latency": stats,
                "slo": {
                    "target_ms": cls.slo_ms,
                    "percentile": cls.slo_percentile,
                    "observed_ms": observed * 1000.0,
                    "attainment": attainment,
                    "met": slo_met,
                },
            })
        generated = sum(entry["generated"] for entry in classes)
        admitted = sum(entry["admitted"] for entry in classes)
        dropped = sum(entry["dropped"] for entry in classes)
        committed = sum(entry["committed"] for entry in classes)
        totals = {
            "population": self.spec.total_population,
            "offered_rate_txs": self.spec.total_steady_rate,
            "generated": generated,
            "offered": mempool_offered,
            "admitted": admitted,
            "dropped": dropped,
            "committed": committed,
            "drop_rate": dropped / mempool_offered if mempool_offered else 0.0,
            "latency": self._latency_hist.summary(E2E_PERCENTILES),
        }
        return {
            "policy": self.spec.policy,
            "capacity_txs": self.spec.capacity_txs,
            "keyspace": self.spec.keyspace,
            "zipf_s": self.spec.zipf_s,
            "classes": classes,
            "totals": totals,
        }
