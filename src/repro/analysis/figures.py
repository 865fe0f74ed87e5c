"""Figure 12 (§7.10) and the Figure 6 saturation annotation.

Every other evaluation figure is a checked-in scenario pack under
``scenarios/`` and runs as ``repro scenarios run <pack>``
(:func:`repro.scenarios.run_pack` from Python). Figure 12 stays here
because its fault placement needs the built cluster's leader schedule,
which no pack can state; packs express *explicit* crash schedules via
their ``faults`` field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "RED_CIRCLE",
    "ReconfigRun",
    "fig12_reconfiguration",
    "saturation_marker",
]

#: The paper's marker for "data point obtained in a saturated testbed".
RED_CIRCLE = "●"


def saturation_marker(result) -> str:
    """Figure annotation for a data point: the paper's red circle when the
    run's leader CPU saturated over the measurement window, else empty."""
    return RED_CIRCLE if result.cpu_saturated else ""


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
