#!/usr/bin/env python
"""Runtime-adaptive pipelining stretch (the paper's §6 future work).

The published Kauri uses a statically configured stretch ("this could be
automatically adapted at runtime, which we leave for future work", §6).
This example misconfigures the stretch badly — 8x the model's optimum —
and shows that the AIMD controller recovers while the static configuration
collapses into view-change churn.

Run:  python examples/adaptive_pipelining.py      (~1 minute)
"""

from repro import Cluster, ProtocolConfig
from repro.analysis import format_table
from repro.config import GLOBAL, KB
from repro.core.perfmodel import PerfModel
from repro.crypto.costs import BLS_COSTS

N = 31
BAD_STRETCH = 12.0


def run(adaptive: bool):
    config = ProtocolConfig(stretch=BAD_STRETCH, adaptive_stretch=adaptive)
    cluster = Cluster(n=N, mode="kauri", scenario="global", config=config, seed=2)
    cluster.start()
    cluster.run(duration=120.0, max_commits=120)
    metrics = cluster.metrics
    leader = cluster.nodes[cluster.policy.leader_of(0)]
    final_stretch = leader.pacer.effective_stretch if leader.pacer else BAD_STRETCH
    return (
        metrics.throughput_txs(),
        metrics.latency_stats()["p50"],
        metrics.committed_blocks,
        len(metrics.view_changes),
        final_stretch,
    )


def main() -> None:
    tree = Cluster(n=N, mode="kauri", scenario="global").policy.configuration(0)
    model = PerfModel.for_topology(
        N, 2, tree.fanout(tree.root), GLOBAL, 250 * KB, BLS_COSTS
    )
    print(f"Model-recommended stretch : {model.pipelining_stretch:.1f}")
    print(f"Configured (bad) stretch  : {BAD_STRETCH:.1f}\n")

    rows = []
    for label, adaptive in (("static (as published)", False), ("adaptive (§6 future work)", True)):
        tput, p50, blocks, view_changes, stretch = run(adaptive)
        rows.append(
            (label, round(tput, 0), round(p50, 2), blocks, view_changes,
             round(stretch, 2))
        )
    print(
        format_table(
            ("Pacing", "tx/s", "p50 latency (s)", "Blocks", "View changes",
             "Final stretch"),
            rows,
            title=f"Over-pipelined Kauri, N={N}, global scenario",
        )
    )
    print(
        "\nThe adaptive controller watches the leader's own uplink backlog"
        "\nand backs the proposal interval off toward the model's operating"
        "\npoint; the static configuration keeps flooding its NIC."
    )


if __name__ == "__main__":
    main()
