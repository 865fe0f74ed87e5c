"""Figure generators: one function per evaluation figure (§7.3-§7.10).

Every function runs real deployments and returns the same series the
paper plots. Since the scenario-pack refactor the *grids* live in
checked-in data files under ``scenarios/`` (one pack per figure); each
generator loads its pack, substitutes any caller-supplied axis values,
and compiles it to the same frozen :class:`~repro.runtime.sweep.ExperimentSpec`
cells the inline grids used to build -- byte-identical, so the on-disk
result cache keeps hitting (tests/test_scenarios_roundtrip.py holds the
proof). Simulation horizons adapt to each configuration's expected
instance latency via :mod:`repro.runtime.horizon`; ``scale`` < 1.0
shrinks horizons uniformly for quick smoke runs.

``jobs`` fans the independent cells out over a process pool (``None``
reads ``$REPRO_SWEEP_JOBS``), and ``use_cache`` re-uses completed cells
from the on-disk result cache. Results are identical for any ``jobs``
value -- every cell is a deterministic function of its spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import KB, NetworkParams, ms
from repro.runtime.experiment import ExperimentResult
from repro.runtime.horizon import adaptive_duration, model_for as _model_for
from repro.runtime.sweep import SweepRunner
from repro.scenarios import CompiledGrid, compile_pack, load_pack

__all__ = [
    "FIGURES",
    "RED_CIRCLE",
    "adaptive_duration",
    "saturation_marker",
    "fig5_stretch_sweep",
    "fig6_scenarios",
    "fig6_kudzu_headtohead",
    "fig7_rtt_sweep",
    "fig8_latency_bandwidth",
    "fig9_throughput_latency",
    "fig10_tree_height",
    "fig11_heterogeneous",
    "fig12_reconfiguration",
    "fig_depth_scaling",
]

#: Registry of every figure the CLI can regenerate: key -> what it shows.
#: ``repro fig``'s choice list derives from this (the way ``--mode``
#: derives from ``MODES``), so adding a figure here surfaces it in the CLI.
FIGURES: Dict[str, str] = {
    "3": "pipelining Gantt: in-flight instances at the leader (§4.2)",
    "5": "throughput vs pipelining stretch (§7.3)",
    "6": "Kauri vs HotStuff-bls vs Kudzu across scenarios (§7.4)",
    "7": "throughput vs RTT (§7.5)",
    "8": "latency vs bandwidth (§7.6)",
    "9": "throughput vs latency under varying load (§7.7)",
    "10": "impact of tree height (§7.8)",
    "11": "heterogeneous networks (§7.9)",
    "12a": "reconfiguration: one faulty leader (§7.10)",
    "12b": "reconfiguration: three consecutive faulty leaders (§7.10)",
    "12c": "reconfiguration: internal nodes + leaders, full walk (§7.10)",
    "depth": "tree-depth scaling to N=1000 (beyond Figure 10)",
}


def _runner(jobs: Optional[int], use_cache: bool) -> SweepRunner:
    """The sweep engine instance shared by every figure generator."""
    return SweepRunner(jobs=jobs, cache=use_cache)


def _pack_grid(
    name: str,
    scale: float,
    seed: int,
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    observability: Optional[bool] = None,
) -> CompiledGrid:
    """Load a checked-in figure pack and compile it for this invocation."""
    return compile_pack(
        load_pack(name),
        scale=scale,
        seed=seed,
        observability=observability,
        axes=axes,
        overrides=overrides,
    )


# ---------------------------------------------------------------------------
# Figure 5: throughput vs pipelining stretch (§7.3)
# ---------------------------------------------------------------------------
def fig5_stretch_sweep(
    block_sizes_kb: Sequence[int] = (50, 100, 200, 250),
    stretches: Sequence[float] = (1, 2, 4, 6, 8, 12, 16, 20),
    n: int = 100,
    scale: float = 1.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    use_cache: bool = False,
) -> Dict[int, List[Tuple[float, float]]]:
    """Global scenario, N=100: throughput (Ktx/s) per stretch per block size."""
    grid = _pack_grid(
        "fig5",
        scale,
        seed,
        axes={
            "block_kb": list(block_sizes_kb),
            "stretch": [float(stretch) for stretch in stretches],
        },
        overrides={"n": n},
    )
    out: Dict[int, List[Tuple[float, float]]] = {kb: [] for kb in block_sizes_kb}
    for cell, result in zip(grid.cells, _runner(jobs, use_cache).run(grid.specs)):
        out[cell.bindings["block_kb"]].append(
            (cell.bindings["stretch"], result.throughput_txs / 1000.0)
        )
    return out


# ---------------------------------------------------------------------------
# Figure 6: throughput across scenarios and system sizes (§7.4)
# ---------------------------------------------------------------------------
#: The paper's marker for "data point obtained in a saturated testbed".
RED_CIRCLE = "●"


def saturation_marker(result: ExperimentResult) -> str:
    """Figure annotation for a data point: the paper's red circle when the
    run's leader CPU saturated over the measurement window, else empty."""
    return RED_CIRCLE if result.cpu_saturated else ""


def fig6_scenarios(
    scenarios: Sequence[str] = ("national", "regional", "global"),
    ns: Sequence[int] = (100, 200, 400),
    modes: Sequence[str] = ("kauri", "kauri-np", "hotstuff-secp", "hotstuff-bls"),
    scale: float = 1.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    use_cache: bool = False,
    observability: bool = False,
) -> List[ExperimentResult]:
    """The paper's headline grid: every system in every scenario at every
    size, 250 KB blocks, model-driven stretch for Kauri. With
    ``observability=True`` each result carries a full RunReport
    (``result.report``) for bottleneck attribution behind the red circles."""
    grid = _pack_grid(
        "fig6",
        scale,
        seed,
        axes={"scenario": list(scenarios), "n": list(ns), "mode": list(modes)},
        observability=observability,
    )
    return _runner(jobs, use_cache).run(grid.specs)


def fig6_kudzu_headtohead(
    scenarios: Sequence[str] = ("national", "global"),
    ns: Sequence[int] = (31, 100),
    scale: float = 1.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    use_cache: bool = False,
    observability: bool = False,
) -> List[ExperimentResult]:
    """Fig. 6-style head-to-head of the protocol zoo's star contenders:
    Kauri (tree, pipelined) vs HotStuff-bls (star, chained) vs Kudzu (star,
    chained, optimistic single-round fast path). One sweep command; the
    Kudzu rows carry ``fast_commits``/``fast_fallbacks`` so the fast-path
    engagement is visible next to the throughput numbers."""
    grid = _pack_grid(
        "fig6-kudzu",
        scale,
        seed,
        axes={"scenario": list(scenarios), "n": list(ns)},
        observability=observability,
    )
    return _runner(jobs, use_cache).run(grid.specs)


# ---------------------------------------------------------------------------
# Figure 7: throughput vs RTT (§7.5)
# ---------------------------------------------------------------------------
def fig7_rtt_sweep(
    rtts_ms: Sequence[int] = (50, 100, 200, 300, 400),
    modes: Sequence[str] = ("kauri", "hotstuff-secp"),
    n: int = 100,
    scale: float = 1.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    use_cache: bool = False,
) -> Dict[str, List[Tuple[int, float, float]]]:
    """Regional bandwidth (100 Mb/s), varying RTT: (rtt_ms, Ktx/s, stretch)."""
    grid = _pack_grid(
        "fig7",
        scale,
        seed,
        axes={
            "scenario": [{"base": "regional", "rtt_ms": rtt} for rtt in rtts_ms],
            "mode": list(modes),
        },
        overrides={"n": n},
    )
    out: Dict[str, List[Tuple[int, float, float]]] = {mode: [] for mode in modes}
    for cell, result in zip(grid.cells, _runner(jobs, use_cache).run(grid.specs)):
        spec = cell.spec
        model = _model_for(spec.mode, n, spec.scenario, 250 * KB)
        out[spec.mode].append(
            (
                cell.bindings["scenario"]["rtt_ms"],
                result.throughput_txs / 1000.0,
                round(model.pipelining_stretch, 1),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Figure 8: latency vs bandwidth (§7.6)
# ---------------------------------------------------------------------------
def fig8_latency_bandwidth(
    bandwidths_mbps: Sequence[int] = (25, 50, 100, 1000),
    modes: Sequence[str] = ("kauri", "hotstuff-secp", "hotstuff-bls"),
    n: int = 100,
    scale: float = 1.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    use_cache: bool = False,
) -> Dict[str, List[Tuple[float, float]]]:
    """RTT fixed at 100 ms, bandwidth swept: (bandwidth, p50 latency ms).

    Includes the paper's analytical infinite-bandwidth floor as the
    ``"<mode>-infinite"`` entries.
    """
    grid = _pack_grid(
        "fig8",
        scale,
        seed,
        axes={
            "scenario": [
                {"name": f"bw{bw}", "rtt_ms": 100, "bandwidth_mbps": bw}
                for bw in bandwidths_mbps
            ],
            "mode": list(modes),
        },
        overrides={"n": n},
    )
    out: Dict[str, List[Tuple[float, float]]] = {mode: [] for mode in modes}
    for cell, result in zip(grid.cells, _runner(jobs, use_cache).run(grid.specs)):
        out[cell.spec.mode].append(
            (
                float(cell.bindings["scenario"]["bandwidth_mbps"]),
                result.latency["p50"] * 1000.0,
            )
        )
    # Analytical floor: zero sending time, pure RTT + processing.
    import math

    inf_params = NetworkParams("inf", rtt=ms(100), bandwidth_bps=math.inf)
    for mode in modes:
        model = _model_for(mode, n, inf_params, 250 * KB)
        out[f"{mode}-infinite"] = [(math.inf, model.instance_latency() * 1000.0)]
    return out


# ---------------------------------------------------------------------------
# Figure 9: throughput vs latency under varying load (§7.7)
# ---------------------------------------------------------------------------
def fig9_throughput_latency(
    block_sizes_kb: Sequence[int] = (32, 64, 125, 250, 500, 1024),
    modes: Sequence[str] = ("kauri", "hotstuff-secp", "hotstuff-bls"),
    n: int = 100,
    scale: float = 1.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    use_cache: bool = False,
) -> Dict[str, List[Tuple[int, float, float]]]:
    """Global scenario: (block_kb, Ktx/s, p50 latency ms) per mode; Kauri's
    stretch follows the model per block size (§7.7)."""
    grid = _pack_grid(
        "fig9",
        scale,
        seed,
        axes={"block_kb": list(block_sizes_kb), "mode": list(modes)},
        overrides={"n": n},
    )
    out: Dict[str, List[Tuple[int, float, float]]] = {mode: [] for mode in modes}
    for cell, result in zip(grid.cells, _runner(jobs, use_cache).run(grid.specs)):
        out[cell.spec.mode].append(
            (
                cell.bindings["block_kb"],
                result.throughput_txs / 1000.0,
                result.latency["p50"] * 1000.0,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Figure 10: impact of tree height (§7.8)
# ---------------------------------------------------------------------------
def fig10_tree_height(
    bandwidths_mbps: Sequence[int] = (25, 50, 100, 1000),
    n: int = 100,
    scale: float = 1.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    use_cache: bool = False,
) -> Dict[str, List[Tuple[float, float, float, bool]]]:
    """RTT=100 ms: Kauri h=2 (f=10) vs h=3 (f=5) vs HotStuff variants.
    Rows: (bandwidth, Ktx/s, p50 latency ms, cpu_saturated). The system
    list (label/mode/height) is the pack's composite ``system`` axis."""
    grid = _pack_grid(
        "fig10",
        scale,
        seed,
        axes={
            "scenario": [
                {"name": f"bw{bw}", "rtt_ms": 100, "bandwidth_mbps": bw}
                for bw in bandwidths_mbps
            ],
        },
        overrides={"n": n},
    )
    out: Dict[str, List[Tuple[float, float, float, bool]]] = {
        label: [] for label in grid.labels()
    }
    for cell, result in zip(grid.cells, _runner(jobs, use_cache).run(grid.specs)):
        out[cell.label].append(
            (
                float(cell.bindings["scenario"]["bandwidth_mbps"]),
                result.throughput_txs / 1000.0,
                result.latency["p50"] * 1000.0,
                result.cpu_saturated,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Beyond Figure 10: tree-depth scaling up to N = 1000
# ---------------------------------------------------------------------------
def fig_depth_scaling(
    sizes: Sequence[int] = (200, 400, 1000),
    heights: Sequence[int] = (2, 3, 4),
    scale: float = 1.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    use_cache: bool = False,
) -> Dict[str, List[Tuple[int, float, float, bool]]]:
    """Tree depth vs system size past the paper's largest plotted scale.

    Fig. 10 asks which tree height wins at which bandwidth with N fixed
    at 100; this sweep asks the same question along the *size* axis, up
    to N = 1000 on the global scenario -- the regime the bitmap signer
    sets and flyweight replica state make simulable in minutes.
    Star-shaped HotStuff-bls rides along as the depth-1 contrast whose
    leader uplink the trees exist to relieve.
    Rows per system: (n, Ktx/s, p50 latency ms, cpu_saturated).
    """
    systems = [
        {"label": f"kauri-h{height}", "mode": "kauri", "height": height}
        for height in heights
    ]
    systems.append({"label": "hotstuff-bls", "mode": "hotstuff-bls", "height": 2})
    grid = _pack_grid(
        "depth", scale, seed, axes={"n": list(sizes), "system": systems}
    )
    out: Dict[str, List[Tuple[int, float, float, bool]]] = {
        label: [] for label in grid.labels()
    }
    for cell, result in zip(grid.cells, _runner(jobs, use_cache).run(grid.specs)):
        out[cell.label].append(
            (
                cell.spec.n,
                result.throughput_txs / 1000.0,
                result.latency["p50"] * 1000.0,
                result.cpu_saturated,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Figure 11: heterogeneous networks (§7.9)
# ---------------------------------------------------------------------------
def fig11_heterogeneous(
    modes: Sequence[str] = ("kauri", "kauri-np", "hotstuff-secp", "hotstuff-bls"),
    per_cluster: int = 10,
    scale: float = 1.0,
    seed: int = 0,
    jobs: Optional[int] = None,
    use_cache: bool = False,
) -> List[ExperimentResult]:
    """The ResilientDB deployment: N=60 over six geo clusters."""
    grid = _pack_grid(
        "fig11",
        scale,
        seed,
        axes={"mode": list(modes)},
        overrides={
            "scenario": {"clusters": "resilientdb", "per_cluster": per_cluster}
        },
    )
    return _runner(jobs, use_cache).run(grid.specs)


# ---------------------------------------------------------------------------
# Figure 12: reconfiguration under faults (§7.10)
# ---------------------------------------------------------------------------
@dataclass
class ReconfigRun:
    """One Figure 12 sub-experiment."""

    label: str
    mode: str
    fault_time: float
    faulty: List[int]
    timeseries: List[Tuple[float, float]]
    recovery_gap: Optional[float]
    max_view: int
    final_is_star: bool
    prefault_txs: float
    postfault_txs: float


def fig12_reconfiguration(
    case: str,
    mode: str = "kauri",
    n: int = 100,
    scenario: str = "global",
    fault_time: float = 40.0,
    duration: float = 100.0,
    bucket: float = 2.0,
    seed: int = 0,
) -> ReconfigRun:
    """Inject §7.10's fault patterns and record the throughput time series.

    ``case`` is one of:

    - ``"leader"`` -- one faulty leader (Fig. 12a);
    - ``"three-leaders"`` -- three consecutive faulty leaders (Fig. 12b);
    - ``"internal+leaders"`` -- f faulty processes placed to poison every
      bin and then the first star leaders, forcing the full m+f+1 walk
      (Fig. 12c, "Kauri internal+leaders");
    - ``"f-leaders"`` -- f consecutive tree roots / star leaders (Fig. 12c,
      "Kauri leaders").

    Fault placement needs the deployment's leader schedule (a cluster
    probe), so this figure stays imperative rather than pack-driven; packs
    express *explicit* crash schedules via their ``faults`` field.
    """
    from repro.runtime.cluster import Cluster

    cluster = Cluster(n=n, mode=mode, scenario=scenario, seed=seed)
    policy = cluster.policy
    f = cluster.f
    faulty: List[int] = []

    def add(node: int) -> None:
        if node not in faulty and len(faulty) < f:
            faulty.append(node)

    if case == "leader":
        add(policy.leader_of(0))
    elif case == "three-leaders":
        for view in range(3):
            add(policy.leader_of(view))
    elif case == "f-leaders":
        view = 0
        cycle = getattr(policy, "num_bins", 0) + n
        while len(faulty) < f and view < 2 * cycle:
            add(policy.leader_of(view))
            view += 1
    elif case == "internal+leaders":
        # The paper's worst case (§7.10): faulty processes block every tree
        # configuration (as internal nodes -- the root is an internal node
        # too, and one faulty root blocks its whole tree) and then serve as
        # the first star leaders, forcing the full m + f + 1 walk. A single
        # non-root internal node cannot block a tree here: its subtree only
        # cuts ~n/m processes, leaving the N-f quorum intact -- blocking
        # via non-root internals costs ~4 faults per tree, which exceeds
        # the f budget across all bins, so roots are the binding choice.
        m = getattr(policy, "num_bins", 0)
        for view in range(m):
            add(policy.configuration(view).root)
        view = m
        while len(faulty) < f and view < m + n:
            add(policy.leader_of(view))
            view += 1
    else:
        raise ValueError(f"unknown case {case!r}")

    for node in faulty:
        cluster.crash_at(node, fault_time)
    cluster.start()
    cluster.run(duration=duration)
    cluster.check_agreement()

    metrics = cluster.metrics
    max_view = metrics.max_view
    final = policy.configuration(max_view)
    recovery = metrics.commit_gap_after(fault_time)
    return ReconfigRun(
        label=case,
        mode=mode,
        fault_time=fault_time,
        faulty=faulty,
        timeseries=metrics.timeseries_txs(bucket=bucket),
        recovery_gap=recovery,
        max_view=max_view,
        final_is_star=final.is_star,
        prefault_txs=metrics.throughput_txs(start=fault_time * 0.25, end=fault_time),
        postfault_txs=metrics.throughput_txs(
            start=fault_time + (recovery or 0.0), end=duration
        ),
    )
