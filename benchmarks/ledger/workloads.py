"""The five ledger workloads: deployments, seeded inputs, checks, metrics.

Everything here goes through the public surface of ``repro.*`` -- build a
``Cluster`` (and a ``WorkloadHarness``), run it, read public attributes
afterwards. Why each workload exists is recorded in ``BENCHMARK.json`` and
the README; this file is the executable definition.

Seeded inputs: every deployment in the repo is deterministic and, with the
saturated block filler, independent of ``Cluster(seed=)``. So the seed
drives the *inputs* instead: link RTT, link bandwidth and block size are
drawn within ``INPUT_SPREAD`` of their nominal values, and
``ingest_overload`` additionally draws its client arrivals
(``jitter=True``) from the seed. Same seed, same inputs, bit-identical
simulation; another seed, a slightly different deployment whose simulated
results move by about the spread.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.config import SCENARIOS, NetworkParams, ProtocolConfig
from repro.crypto.bls import MERGE_STATS
from repro.errors import ConsensusError
from repro.runtime.cluster import Cluster
from repro.runtime.metrics import percentile
from repro.runtime.workload import (
    ClientClassSpec,
    WorkloadHarness,
    WorkloadSpec,
    make_workload_factory,
)

#: Half-width of the seeded draw around each nominal input (link RTT, link
#: bandwidth, block size): wide enough that no simulated metric repeats
#: from seed to seed, narrow enough that the deployments stay the paper's.
INPUT_SPREAD = 0.002

#: Commits skipped as warm-up before the steady window (share of the run's
#: commits). Indexed by commit, not by time, so a seeded input that shifts
#: one commit across a time boundary cannot step the simulated metrics.
WARMUP_SHARE = 0.25

#: Percentile ladder for the simulated commit-latency tail: the reported
#: tail is the highest rung with at least TAIL_SAMPLES_BEYOND samples
#: beyond it (the median when no rung qualifies).
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_SAMPLES_BEYOND = 10

#: Acceptance band of measured / §4.3-model throughput (the bound of
#: benchmarks/bench_model_validation.py).
MODEL_BAND = (0.3, 1.3)

#: Fig. 12a: post-fault throughput must recover to this share of pre-fault.
RECOVERY_SHARE = 0.6


class CheckFailed(Exception):
    """A correctness check failed; the message starts with the check's name."""


@dataclass(frozen=True)
class Workload:
    """One named deployment + stop condition.

    ``max_commits`` bounds commit-bound runs (``duration`` is then only a
    safety horizon); ``crash_at`` crashes the view-0 leader; ``ingest_rate``
    switches from the closed saturated filler to an open-loop client class.
    """

    name: str
    n: int
    mode: str
    scenario: str
    duration: float
    #: Simulated seconds per timing slice (about 200 slices per pass); see
    #: ``run.py`` for what the slices are for.
    slice_s: float
    max_commits: Optional[int] = None
    crash_at: Optional[float] = None
    ingest_rate: Optional[float] = None
    check_model: bool = False

    @property
    def fault_free(self) -> bool:
        return self.crash_at is None


#: Full sizes: ~1.1-1.5 s of host time per pass on the 2-core box, so five
#: timed passes fit the contract's run length.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("kauri_n100", 100, "kauri", "global", 900.0, 0.2,
                 max_commits=36, check_model=True),
        Workload("kauri_n400", 400, "kauri", "global", 900.0, 0.125,
                 max_commits=8, check_model=True),
        Workload("hotstuff_secp_n100", 100, "hotstuff-secp", "global", 900.0, 1.5,
                 max_commits=36, check_model=True),
        Workload("kauri_crash_n100", 100, "kauri", "global", 80.0, 0.4,
                 crash_at=20.0),
        Workload("ingest_overload", 7, "kauri", "national", 4.5, 0.02,
                 ingest_rate=2_000_000.0),
    )
}

#: Smoke sizes for the test suite: same deployments, a fraction of the work.
#: The crash run cannot shrink below one recovery (~29 simulated seconds).
SMOKE: Dict[str, Workload] = {
    name: replace(WORKLOADS[name], **sizes)
    for name, sizes in (
        ("kauri_n100", {"max_commits": 6}),
        ("kauri_n400", {"max_commits": 3}),
        ("hotstuff_secp_n100", {"max_commits": 6}),
        ("kauri_crash_n100", {"duration": 50.0, "crash_at": 10.0}),
        ("ingest_overload", {"duration": 1.5}),
    )
}

INGEST_PER_USER_RATE = 0.05
INGEST_SLO_MS = 2000.0


def seeded_inputs(workload: Workload, seed: int) -> Tuple[NetworkParams, ProtocolConfig]:
    """The workload's link parameters and block size for ``seed`` (see the
    module docstring)."""
    rng = random.Random(f"ledger:{workload.name}:{seed}")

    def draw(nominal: float) -> float:
        return nominal * (1.0 + rng.uniform(-INPUT_SPREAD, INPUT_SPREAD))

    scenario = SCENARIOS[workload.scenario]
    link = NetworkParams(
        f"{scenario.name}~{seed}",
        rtt=draw(scenario.rtt),
        bandwidth_bps=draw(scenario.bandwidth_bps),
    )
    return link, ProtocolConfig(block_size=int(draw(ProtocolConfig().block_size)))


class Deployment:
    """One freshly built instance of a workload: build, start, run, read."""

    def __init__(self, workload: Workload, seed: int, observability: bool = False):
        self.workload = workload
        self.link, self.config = seeded_inputs(workload, seed)
        self.harness: Optional[WorkloadHarness] = None
        self.summary: Optional[Dict[str, Any]] = None
        factory = None
        spec = None
        if workload.ingest_rate is not None:
            spec = WorkloadSpec(
                classes=(
                    ClientClassSpec(
                        name="ingest",
                        population=int(workload.ingest_rate / INGEST_PER_USER_RATE),
                        rate_per_user=INGEST_PER_USER_RATE,
                        slo_ms=INGEST_SLO_MS,
                    ),
                ),
                capacity_txs=5_000,
                policy="drop",
                batch_interval=0.01,
                jitter=True,
            )
            factory = make_workload_factory(spec, self.config)
        self.cluster = Cluster(
            n=workload.n,
            mode=workload.mode,
            scenario=self.link,
            config=self.config,
            height=2,
            seed=seed,
            workload_factory=factory,
            observability=observability,
        )
        if spec is not None:
            self.harness = WorkloadHarness(self.cluster, spec, seed=seed)
        if workload.crash_at is not None:
            self.cluster.crash_at(self.cluster.policy.leader_of(0), workload.crash_at)
        MERGE_STATS.reset()

    def start(self) -> None:
        self.cluster.start()
        if self.harness is not None:
            self.harness.start()

    def run(self) -> None:
        """The timed region: simulate to the stop condition and consume the
        client summary (report generation is part of what a capacity run
        pays)."""
        self.cluster.run(
            duration=self.workload.duration, max_commits=self.workload.max_commits
        )
        if self.harness is not None:
            self.summary = self.harness.summary()

    # ------------------------------------------------------------------
    # Deterministic read-out
    # ------------------------------------------------------------------
    def records(self):
        return self.cluster.metrics.records()

    def steady_records(self):
        records = self.records()
        return records[int(len(records) * WARMUP_SHARE):]

    def units(self) -> Dict[str, int]:
        """Deterministic work-unit counts the host metrics are divided by."""
        if self.summary is not None:
            offered = self.summary["totals"]["generated"]
        else:
            # Closed saturated filler: a tx is offered when it is packed.
            offered = sum(record.num_txs for record in self.records())
        return {
            "blocks": self.cluster.metrics.committed_blocks,
            "offered_txs": offered,
        }

    def fingerprint(self) -> Tuple:
        cluster = self.cluster
        records = self.records()
        return (
            cluster.metrics.committed_blocks,
            cluster.sim.events_processed,
            cluster.network.messages_sent,
            repr(cluster.sim.now),
            records[-1].block_hash if records else "",
        )

    def sim_digest(self) -> str:
        """SHA-256 over every first-commit record (height, hash, instant):
        equal digests mean the simulated run was the same, commit for
        commit. Deliberately not node 0's commit log -- node 0 is the
        crashed leader in the fault workload."""
        digest = hashlib.sha256()
        for record in self.records():
            digest.update(
                f"{record.height} {record.block_hash} {record.time!r}\n".encode()
            )
        return digest.hexdigest()

    def ops(self) -> Tuple[int, int]:
        """(attempted, failed) operations of this pass.

        An operation is a block the run set out to commit: ``max_commits``
        of them on a commit-bound run, the blocks it did commit on a
        duration-bound one, plus every instance a correct replica aborted.
        It fails when the run stops short of it or the instance aborts.

        ``ingest_overload`` is counted the same way. Its clients offer ~40x
        what the deployment can commit, so shedding most of them is the
        admission policy doing its job, not an operation failing; the
        client-side ledger (offered / admitted / dropped / committed late)
        is the per-layer ``runtime.clients.*`` family instead.
        """
        cluster = self.cluster
        committed = cluster.metrics.committed_blocks
        aborted = sum(node.instance_failures for node in cluster.correct_nodes())
        target = self.workload.max_commits or 0
        return max(committed, target) + aborted, max(0, target - committed) + aborted

    def recovery_s(self) -> Optional[float]:
        """Fig. 12a's recovery time: from the crash to the next commit."""
        if self.workload.crash_at is None:
            return None
        return self.cluster.metrics.commit_gap_after(self.workload.crash_at)

    def model_ratio(self) -> float:
        """Measured steady throughput over the §4.3 model's prediction."""
        cluster = self.cluster
        model = cluster.model_for(cluster.policy.configuration(0))
        return self.sim_metrics()[0]["sim_tput_txs"] / model.expected_throughput_txs(
            self.config
        )

    def sim_metrics(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Simulated end-to-end metrics over the steady window, and the
        sample counts behind them (tail percentile chosen, latency and
        client-latency samples)."""
        steady = self.steady_records()
        if len(steady) < 2:
            raise CheckFailed(
                f"steady_window: only {len(steady)} commits after warm-up"
            )
        span = steady[-1].time - steady[0].time
        latencies = sorted(record.latency for record in steady)
        tail_p = TAIL_LADDER[0]
        for p in TAIL_LADDER:
            beyond = len(latencies) - math.ceil(p / 100.0 * len(latencies))
            if beyond >= TAIL_SAMPLES_BEYOND:
                tail_p = p
        # Time without service: start-up counts (nothing commits before the
        # first block does), and so does a fault's outage.
        times = [0.0] + [record.time for record in self.records()]
        out = {
            "sim_tput_txs": sum(r.num_txs for r in steady[1:]) / span,
            "sim_commit_p50_s": percentile(latencies, 50.0),
            "sim_commit_tail_s": percentile(latencies, tail_p),
            "sim_longest_stall_s": max(b - a for a, b in zip(times, times[1:])),
        }
        samples = {"percentile": tail_p, "samples": len(latencies)}
        if self.summary is not None:
            # Mean and max are the histogram's exact figures; its
            # percentiles are bucket midpoints (2.2% apart), which would
            # read the same from seed to seed and then jump a whole bucket.
            e2e = self.summary["totals"]["latency"]
            out["sim_e2e_mean_s"] = e2e["mean"]
            out["sim_e2e_max_s"] = e2e["max"]
            samples["e2e_samples"] = e2e["count"]
        else:
            # The saturated filler hands a tx to the leader at the instant
            # it is packed, so client latency is consensus latency.
            out["sim_e2e_mean_s"] = math.fsum(latencies) / len(latencies)
            out["sim_e2e_max_s"] = latencies[-1]
            samples["e2e_samples"] = len(latencies)
        return out, samples

    # ------------------------------------------------------------------
    # Correctness gate
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Raise :class:`CheckFailed` naming the first failed check."""
        workload = self.workload
        cluster = self.cluster
        metrics = cluster.metrics
        try:
            cluster.check_agreement()
        except ConsensusError as exc:
            raise CheckFailed(f"agreement: {exc}") from exc
        if workload.fault_free:
            if workload.max_commits is not None and (
                metrics.committed_blocks < workload.max_commits
            ):
                raise CheckFailed(
                    f"liveness: {metrics.committed_blocks} of "
                    f"{workload.max_commits} blocks committed"
                )
            if metrics.view_changes:
                raise CheckFailed(
                    f"no_view_change: {len(metrics.view_changes)} view-change "
                    f"events in a fault-free run"
                )
        else:
            self._check_recovery()
        if workload.check_model:
            ratio = self.model_ratio()
            if not MODEL_BAND[0] <= ratio <= MODEL_BAND[1]:
                raise CheckFailed(
                    f"model_band: measured/predicted throughput {ratio:.3f} "
                    f"outside {MODEL_BAND}"
                )
        if self.summary is not None:
            pools = [node.workload for node in cluster.nodes]
            offered = sum(pool.offered for pool in pools)
            settled = sum(
                pool.admitted + pool.dropped + pool.deferred_txs for pool in pools
            )
            if offered != settled:
                raise CheckFailed(
                    f"mempool_conservation: offered {offered} != admitted + "
                    f"dropped + deferred {settled}"
                )
            if self.summary["totals"]["committed"] == 0:
                raise CheckFailed("liveness: no client transaction committed")

    def _check_recovery(self) -> None:
        """Fig. 12a's assertions on the single-faulty-leader run."""
        workload = self.workload
        cluster = self.cluster
        metrics = cluster.metrics
        fault = workload.crash_at
        if metrics.max_view != 1:
            raise CheckFailed(
                f"one_view_change: reached view {metrics.max_view}, expected 1"
            )
        if not cluster.policy.is_tree_view(1):
            raise CheckFailed("keeps_tree: view 1 fell back to the star")
        gap = self.recovery_s()
        if gap is None:
            raise CheckFailed("recovers: no commit after the fault")
        before = metrics.throughput_txs(start=fault * WARMUP_SHARE, end=fault)
        after = metrics.throughput_txs(start=fault + gap, end=workload.duration)
        if after < RECOVERY_SHARE * before:
            raise CheckFailed(
                f"recovers: post-fault {after:.1f} tx/s < {RECOVERY_SHARE} x "
                f"pre-fault {before:.1f} tx/s"
            )

    # ------------------------------------------------------------------
    # Boundary counts read from public attributes
    # ------------------------------------------------------------------
    def attribute_counts(self) -> Dict[str, float]:
        """Per-layer counts and simulated busy/wait figures, all read from
        public attributes after the pass (per unit unless noted)."""
        cluster = self.cluster
        unit = self.per_unit_divisor()
        end = cluster.sim.now
        nodes = cluster.nodes
        nics = [cluster.network.nic(node.node_id) for node in nodes]
        root = cluster.policy.leader_of(cluster.metrics.max_view)
        start = self.steady_records()[0].time
        msgs = cluster.network.messages_sent
        counts = {
            "sim.events": cluster.sim.events_processed / unit,
            "sim.cpu.jobs": sum(node.cpu.jobs_completed for node in nodes) / unit,
            "sim.cpu.root_busy_share": nodes[root].cpu.utilization(start, end),
            "net.msgs": msgs / unit,
            "net.bytes": sum(nic.bytes_sent for nic in nics) / unit,
            "net.nic_wait_s": sum(nic.total_queueing_delay for nic in nics) / unit,
            "net.root_nic_busy_share": cluster.network.nic(root).utilization(start, end),
            "net.dropped_msgs": cluster.faults.dropped_messages,
            "net.max_endpoint_queue": max(
                cluster.network.endpoint(node.node_id).max_queued for node in nodes
            ),
            "crypto.entries_examined": MERGE_STATS.entries_examined / unit,
            "crypto.slot_copies": MERGE_STATS.slot_copies / unit,
            "crypto.slots_shared": MERGE_STATS.slots_shared / unit,
            "consensus.view_changes": len(cluster.metrics.view_changes),
            "consensus.timeouts_fired": sum(
                node.pacemaker.timeouts_fired for node in nodes
            ),
            "consensus.instance_failures": sum(
                node.instance_failures for node in nodes
            ),
            "topology.reconfigs": cluster.metrics.max_view,
            "core.model_tput_ratio": self.model_ratio(),
        }
        offered = admitted = dropped = deferred = late = 0
        if self.summary is not None:
            totals = self.summary["totals"]
            offered, admitted, dropped = (
                totals["offered"], totals["admitted"], totals["dropped"]
            )
            deferred = sum(node.workload.deferred_txs for node in nodes)
            late = sum(
                cls["committed"] - round(cls["slo"]["attainment"] * cls["committed"])
                for cls in self.summary["classes"]
            )
        counts.update({
            "runtime.clients.offered": offered,
            "runtime.clients.admitted": admitted,
            "runtime.clients.dropped": dropped,
            "runtime.clients.deferred": deferred,
            "runtime.clients.late": late,
            # Refused or late, over offered: the client's view of overload.
            "runtime.clients.failed_share": (dropped + late) / offered if offered else 0.0,
        })
        return counts

    def per_unit_divisor(self) -> float:
        """Blocks on the consensus workloads, 1,000 generated txs on ingest."""
        units = self.units()
        if self.summary is not None:
            return units["offered_txs"] / 1000.0
        return float(units["blocks"])
