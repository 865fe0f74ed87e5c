"""Table 1 (system comparison) and Table 2 (model parameters).

Table 1 is the paper's qualitative comparison of BFT systems; the Kauri
row is *derived from this implementation* (resilience from
:func:`~repro.config.max_faults`, reconfiguration bound from the policy,
load balancing from the tree fanout), while the other systems carry the
properties the paper attributes to them (§1).

Table 2 evaluates the §4.3 performance model per scenario -- processing,
sending and remaining time, the ideal pipelining stretch, and the expected
speedup over HotStuff-secp -- exactly the quantities the paper tabulates. The measured side of that
comparison is ``scenarios/fig6.toml``: its ratio rows and its
``model_ratio`` rows check the simulated speedups and the model's accuracy.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import (
    GLOBAL,
    KB,
    NATIONAL,
    REGIONAL,
    NetworkParams,
    default_root_fanout,
    max_faults,
)
from repro.core.perfmodel import PerfModel
from repro.crypto.costs import BLS_COSTS, SECP_COSTS
from repro.topology.reconfig import ReconfigurationPolicy

TABLE1_HEADERS = (
    "System",
    "Topology",
    "Load balancing",
    "Resilience",
    "Deterministic finality",
    "Reconfiguration bound",
)


def table1_rows(n: int = 100) -> List[Tuple]:
    """The paper's Table 1, with Kauri's row computed from the library."""
    f = max_faults(n)
    policy = ReconfigurationPolicy(range(n), height=2)
    star_policy = ReconfigurationPolicy.star_policy(range(n))
    return [
        ("PBFT", "clique", "no (all-to-all)", f"f={f} (n/3)", "yes", f"{f + 1}"),
        (
            "HotStuff",
            "star",
            "no (leader-centric)",
            f"f={f} (n/3)",
            "yes",
            f"{star_policy.worst_case_reconfigurations(f)}",
        ),
        (
            "Algorand/SCP (committee)",
            "committee",
            "partial",
            "committee-bound (< n/3)",
            "no (probabilistic)",
            "n/a",
        ),
        (
            "Steward/ResilientDB (hierarchical)",
            "groups",
            "yes",
            "min-group-bound (< n/3)",
            "yes",
            "group-local",
        ),
        (
            "ByzCoin/Motor/Omniledger (tree)",
            "tree",
            "yes",
            f"f={f} (n/3)",
            "yes",
            "falls back to star (h<=2)",
        ),
        (
            "Kauri",
            "tree (any height)",
            f"yes (fanout {policy.configuration(0).fanout(policy.leader_of(0))})",
            f"f={f} (n/3)",
            "yes",
            f"m+f+1 = {policy.worst_case_reconfigurations(f)}"
            f" (m+1 = {policy.num_bins + 1} when f < m)",
        ),
    ]


TABLE2_HEADERS = (
    "Scenario",
    "System",
    "N",
    "Processing (ms)",
    "Sending (ms)",
    "Remaining (ms)",
    "Stretch",
    "Max speedup",
    "Expected speedup vs HotStuff-secp",
)


def _model(
    system: str, n: int, params: NetworkParams, block_size: int
) -> PerfModel:
    if system == "kauri":
        fanout = default_root_fanout(n, 2)
        return PerfModel.for_topology(n, 2, fanout, params, block_size, BLS_COSTS)
    if system == "hotstuff-secp":
        return PerfModel.for_star(n, params, block_size, SECP_COSTS)
    if system == "hotstuff-bls":
        return PerfModel.for_star(n, params, block_size, BLS_COSTS)
    raise ValueError(f"unknown system {system!r}")


def table2_rows(
    block_size: int = 250 * KB,
    configs: Optional[List[Tuple[str, NetworkParams, int]]] = None,
) -> List[Tuple]:
    """Model parameters per (scenario, system, n), following §7.2.

    The default grid mirrors the paper's table: the three §7.1 scenarios at
    N=100 plus the global scenario at N=200 and N=400.
    """
    if configs is None:
        configs = [
            ("national", NATIONAL, 100),
            ("regional", REGIONAL, 100),
            ("global", GLOBAL, 100),
            ("global", GLOBAL, 200),
            ("global", GLOBAL, 400),
        ]
    rows = []
    for name, params, n in configs:
        hotstuff = _model("hotstuff-secp", n, params, block_size)
        for system in ("hotstuff-secp", "kauri"):
            model = _model(system, n, params, block_size)
            expected_speedup = (
                hotstuff.bottleneck_time / model.bottleneck_time
                if system == "kauri"
                else 1.0
            )
            rows.append(
                (
                    name,
                    system,
                    n,
                    model.processing_time * 1000,
                    model.sending_time * 1000,
                    model.remaining_time * 1000,
                    round(model.pipelining_stretch, 1),
                    round(model.max_speedup, 2),
                    round(expected_speedup, 1),
                )
            )
    return rows
