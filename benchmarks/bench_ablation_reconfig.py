"""Ablation A2: bin-based tree reconfiguration vs immediate star fallback
(§5, Table 1's "falls back to a star" row for ByzCoin-style systems).

With a small number of faults (f < m), Kauri's Algorithm 4 finds a fresh
robust *tree* and keeps tree-level throughput; a ByzCoin-style policy that
drops to a star on the first fault recovers liveness but sacrifices the
load-balancing advantage. We emulate the latter by running the same fault
schedule against the star policy (HotStuff-bls shares Kauri's crypto, so
topology is the only difference post-fallback).
"""

from conftest import SCALE, run_once

from repro.analysis import format_table
from repro.core.modes import mode_spec
from repro.runtime.cluster import build_policy
from repro.runtime.experiment import run_experiment


def run_case(mode):
    policy = build_policy(mode_spec(mode), "global", 100, 2, None)
    crashes = [(policy.leader_of(0), 40.0)]
    duration = 160.0 * max(SCALE, 0.5)
    result = run_experiment(
        mode=mode,
        scenario="global",
        n=100,
        duration=duration,
        crashes=crashes,
        warmup_fraction=0.0,
    )
    post_tree = policy.configuration(result.max_view)
    return result, post_tree


def test_ablation_tree_reconfig_vs_star_fallback(benchmark, save_table):
    results = run_once(
        benchmark, lambda: {mode: run_case(mode) for mode in ("kauri", "hotstuff-bls")}
    )
    rows = []
    for mode, (result, post_tree) in results.items():
        rows.append(
            (
                mode,
                result.max_view,
                "star" if post_tree.is_star else f"tree h={post_tree.height}",
                round(result.throughput_txs / 1000.0, 3),
            )
        )
    save_table(
        "ablation_reconfig",
        format_table(
            ("System", "Views", "Post-fault topology", "Ktx/s overall"),
            rows,
            title="Ablation: reconfiguration strategy under 1 leader fault (N=100, global)",
        ),
    )

    kauri_result, kauri_tree = results["kauri"]
    star_result, star_tree = results["hotstuff-bls"]
    # Kauri keeps a tree after the fault (§5: f < m), the star policy cannot
    assert not kauri_tree.is_star
    assert star_tree.is_star
    # and the preserved tree keeps the throughput advantage post-fault
    assert kauri_result.throughput_txs > 2 * star_result.throughput_txs
