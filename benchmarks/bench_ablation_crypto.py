"""Ablation A3: BLS aggregation vs secp lists inside Kauri's tree (§3.3.2,
§6).

The paper motivates BLS with two claims: aggregates keep vote messages
O(1)-sized up the tree, and verification at each internal node is O(m)
rather than O(N). Running Kauri's tree with secp signature lists
(kauri-secp) isolates the aggregation choice from the topology choice.
"""

from conftest import SCALE, run_grid, run_once

from repro.analysis import format_table
from repro.config import GLOBAL, KB
from repro.runtime.sweep import ExperimentSpec
from repro.runtime.horizon import adaptive_duration


def sweep():
    cells = [(n, mode) for n in (100, 200) for mode in ("kauri", "kauri-secp")]
    specs = [
        ExperimentSpec(
            mode=mode,
            scenario="global",
            n=n,
            duration=adaptive_duration(mode, n, GLOBAL, 250 * KB, scale=SCALE),
            max_commits=int(120 * SCALE) or 12,
        )
        for n, mode in cells
    ]
    return dict(zip(cells, run_grid(specs)))


def test_ablation_bls_vs_secp_in_tree(benchmark, save_table):
    results = run_once(benchmark, sweep)
    rows = [
        (
            n,
            mode,
            round(r.throughput_txs / 1000.0, 3),
            round(r.latency["p50"], 2),
            round(r.leader_cpu_utilization, 3),
        )
        for (n, mode), r in results.items()
    ]
    save_table(
        "ablation_crypto",
        format_table(
            ("N", "System", "Ktx/s", "p50 lat (s)", "Root CPU util"),
            rows,
            title="Ablation: aggregation scheme inside the Kauri tree (global)",
        ),
    )

    for n in (100, 200):
        bls = results[(n, "kauri")]
        secp = results[(n, "kauri-secp")]
        # without aggregation the vote path carries O(quorum)-sized lists
        # and every level re-verifies O(N) signatures: throughput suffers
        assert bls.throughput_txs >= secp.throughput_txs
    # the gap grows with N (O(1) vs O(N) certificates)
    gap100 = results[(100, "kauri")].throughput_txs / max(
        1e-9, results[(100, "kauri-secp")].throughput_txs
    )
    gap200 = results[(200, "kauri")].throughput_txs / max(
        1e-9, results[(200, "kauri-secp")].throughput_txs
    )
    assert gap200 >= 0.9 * gap100  # monotone within noise
