"""Experiment harness: run one configuration and extract paper-style metrics.

Implements the measurement methodology of §7: run the deployment to a stop
condition, discard a warm-up prefix, report steady-state throughput
(transactions/second), latency percentiles, and flag CPU saturation (the
paper's red circles mark "data points obtained in a saturated testbed").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.config import ProtocolConfig
from repro.obs.report import assemble_report, report_sections
from repro.runtime.cluster import Cluster


@dataclass
class ExperimentResult:
    """Steady-state measurements of one run."""

    mode: str
    scenario: str
    n: int
    block_size: int
    stretch: Optional[float]
    duration: float
    warmup: float
    throughput_txs: float
    throughput_blocks: float
    latency: Dict[str, float]
    committed_blocks: int
    view_changes: int
    max_view: int
    #: The view-0 leader's window utilization reached the threshold (the
    #: red circle of EXPERIMENTS.md); the report's
    #: ``saturation.cpu_saturated`` is set by *any* saturated node instead.
    cpu_saturated: bool
    leader_cpu_utilization: float
    instance_failures: int
    #: Full RunReport (repro.obs) when the run had observability enabled.
    report: Optional[Dict[str, Any]] = field(default=None, repr=False)
    #: Kudzu fast-path counters, summed over all nodes (0 for every other
    #: protocol). Defaulted so cached pre-upgrade results still load.
    fast_commits: int = 0
    fast_fallbacks: int = 0
    #: Workload-engine summary (per-class SLO attainment, admission
    #: counters, e2e tail latency) when the run drove a WorkloadHarness;
    #: None for classic runs so cached pre-upgrade results still load.
    workload: Optional[Dict[str, Any]] = field(default=None, repr=False)


def run_experiment(
    mode: str = "kauri",
    scenario: Union[str, Any] = "global",
    n: int = 100,
    block_size: Optional[int] = None,
    stretch: Optional[float] = None,
    height: int = 2,
    root_fanout: Optional[int] = None,
    duration: float = 60.0,
    warmup_fraction: float = 0.25,
    max_commits: Optional[int] = None,
    seed: int = 0,
    config: Optional[ProtocolConfig] = None,
    crashes: Sequence[Tuple[int, float]] = (),
    uplink_lanes: int = 1,
    saturation_threshold: float = 0.95,
    observability: bool = False,
    workload: Optional[Any] = None,
) -> ExperimentResult:
    """Build, run, and measure one deployment.

    ``stretch=None`` lets Kauri follow the performance model (§7.2);
    explicit values reproduce the stretch sweeps (Figure 5). ``max_commits``
    bounds simulation cost for fast configurations without biasing
    throughput (the window is still wall-clock based).
    Every measured field is read from one
    :func:`~repro.obs.report.report_sections` record over the steady-state
    window. ``observability=True`` additionally records per-instance phase
    spans and attaches that record, completed into the full RunReport, as
    ``result.report``.

    ``workload`` (a :class:`~repro.runtime.workload.WorkloadSpec` or the
    mapping form it lowers from) switches the run from the saturated
    block-filler to the aggregate client-population engine: bounded
    per-node mempools, a :class:`~repro.runtime.workload.WorkloadHarness`
    submitting through the real client path into the Zipf-keyed KV
    application, and ``result.workload`` carrying the per-class summary.
    """
    cfg = config if config is not None else ProtocolConfig()
    if block_size is not None:
        cfg = cfg.with_block_size(block_size)
    if stretch is not None:
        cfg = cfg.with_stretch(stretch)
    workload_factory = None
    if workload is not None:
        from repro.runtime.workload import WorkloadSpec, make_workload_factory

        if not isinstance(workload, WorkloadSpec):
            workload = WorkloadSpec.from_mapping(workload)
        workload_factory = make_workload_factory(workload, cfg)
    cluster = Cluster(
        n=n,
        mode=mode,
        scenario=scenario,
        config=cfg,
        height=height,
        root_fanout=root_fanout,
        seed=seed,
        crashes=crashes,
        uplink_lanes=uplink_lanes,
        observability=observability,
        workload_factory=workload_factory,
    )
    harness = None
    if workload is not None:
        from repro.app.kvstore import OpRegistry, attach_kv_application
        from repro.runtime.workload import WorkloadHarness

        registry = OpRegistry()
        attach_kv_application(cluster, registry)
        harness = WorkloadHarness(cluster, workload, registry=registry, seed=seed)
    cluster.start()
    if harness is not None:
        harness.start()
    cluster.run(duration=duration, max_commits=max_commits)
    cluster.check_agreement()

    # One record over the steady-state window [warmup, end): the warm-up
    # ramp must not dilute (or inflate) throughput, latency or saturation.
    end = cluster.sim.now
    sections = report_sections(
        cluster,
        start=min(end * warmup_fraction, end),
        end=end,
        saturation_threshold=saturation_threshold,
    )
    run, window, totals = sections["run"], sections["window"], sections["totals"]
    leader_utilization = sections["saturation"]["leader_cpu_utilization"]
    fast_path = sections.get("fast_path", {})
    return ExperimentResult(
        mode=run["mode"],
        scenario=run["scenario"],
        n=run["n"],
        block_size=cfg.block_size,
        stretch=cfg.stretch,
        duration=window["end"],
        warmup=window["start"],
        throughput_txs=totals["throughput_txs"],
        throughput_blocks=totals["throughput_blocks"],
        latency=totals["latency"],
        committed_blocks=totals["committed_blocks"],
        view_changes=totals["view_changes"],
        max_view=totals["max_view"],
        cpu_saturated=leader_utilization >= saturation_threshold,
        leader_cpu_utilization=leader_utilization,
        instance_failures=totals["instance_failures"],
        report=assemble_report(cluster, sections) if observability else None,
        fast_commits=fast_path.get("fast_commits", 0),
        fast_fallbacks=fast_path.get("fast_fallbacks", 0),
        workload=sections.get("workload"),
    )
