#!/usr/bin/env python
"""Capacity planning with the §4.3 performance model.

The paper's Kauri requires the tree topology and the pipelining stretch to
be configured manually, "using the performance model provided in this
paper" (§8). This example is that workflow as a tool: given a deployment
(N, RTT, bandwidth, block size), it tabulates the model across candidate
tree heights, picks the configuration with the best expected throughput,
and prints the stretch to configure.

Run:  python examples/capacity_planner.py [N] [rtt_ms] [bandwidth_mbps]

With ``--measured``, the model-based plan is followed by a *measured*
offered-load sweep through the workload engine (aggregate client
populations, bounded leader mempool, end-to-end tail latency), answering
"how many users fit this topology" from simulation instead of the closed
-form model -- the same sweep ``python -m repro capacity`` runs:

      python examples/capacity_planner.py --measured [users] [rate_per_user]
"""

import sys

from repro import KB, NetworkParams, PerfModel, ProtocolConfig
from repro.analysis import format_table
from repro.config import default_root_fanout, mbps, ms
from repro.crypto.costs import BLS_COSTS, SECP_COSTS


def plan(n: int, rtt_ms: float, bandwidth_mbps: float, block_kb: int = 250):
    params = NetworkParams("target", rtt=ms(rtt_ms), bandwidth_bps=mbps(bandwidth_mbps))
    config = ProtocolConfig(block_size=block_kb * KB)
    candidates = []
    for height in (1, 2, 3, 4):
        try:
            fanout = default_root_fanout(n, height) if height > 1 else n - 1
            costs = BLS_COSTS if height > 1 else SECP_COSTS
            model = PerfModel.for_topology(
                n, height, fanout, params, config.block_size, costs
            )
        except Exception:
            continue
        candidates.append((height, fanout, model))
    return params, config, candidates


def measured_plan(users: int, rate_per_user: float) -> None:
    """Measure the saturation knee for a small Kauri deployment."""
    from repro.runtime.sweep import ExperimentSpec
    from repro.runtime.workload import capacity_sweep

    slo_ms = 1000.0
    points, knee, _ = capacity_sweep(
        ExperimentSpec(mode="kauri", scenario="national", n=7, duration=10.0),
        users=users,
        rate_per_user=rate_per_user,
        levels=4,
        max_load_factor=1.0,
        slo_ms=slo_ms,
        capacity_txs=1500,
    )
    rows = [
        (
            f"{point['users']:,}",
            round(point["offered_rate_txs"], 1),
            point["committed"],
            round(point["latency"]["p50"] * 1000, 1),
            round(point["latency"]["p99"] * 1000, 1),
            round(point["latency"]["p999"] * 1000, 1),
            f"{point['drop_rate']:.1%}",
        )
        for point in points
    ]
    print(format_table(
        ("Users", "Offered tx/s", "Committed", "p50 ms", "p99 ms",
         "p999 ms", "Drops"),
        rows,
        title=f"Measured capacity: kauri n=7 (national), "
              f"SLO p99 <= {slo_ms:.0f} ms",
    ))
    if knee >= 0:
        print(f"\nMeasured knee: ~{points[knee]['users']:,} users fit within "
              f"the SLO")
    else:
        print("\nMeasured knee: none of the tested loads met the SLO")


def main() -> None:
    argv = sys.argv[1:]
    if argv and argv[0] == "--measured":
        users = int(argv[1]) if len(argv) > 1 else 400_000
        rate = float(argv[2]) if len(argv) > 2 else 0.002
        measured_plan(users, rate)
        return
    n = int(argv[0]) if len(argv) > 0 else 400
    rtt_ms_value = float(argv[1]) if len(argv) > 1 else 200.0
    bw = float(argv[2]) if len(argv) > 2 else 25.0

    params, config, candidates = plan(n, rtt_ms_value, bw)
    rows = []
    for height, fanout, model in candidates:
        label = "star (HotStuff)" if height == 1 else f"tree h={height}"
        rows.append(
            (
                label,
                fanout,
                round(model.sending_time * 1000, 1),
                round(model.processing_time * 1000, 1),
                round(model.remaining_time * 1000, 1),
                round(model.pipelining_stretch, 1),
                "CPU" if model.is_cpu_bound else "network",
                round(model.expected_throughput_txs(config), 0),
                round(model.instance_latency() * 1000, 0),
            )
        )
    print(
        format_table(
            (
                "Topology",
                "Fanout",
                "Sending (ms)",
                "Processing (ms)",
                "Remaining (ms)",
                "Stretch",
                "Bottleneck",
                "Expected tx/s",
                "Latency (ms)",
            ),
            rows,
            title=(
                f"Capacity plan: N={n}, RTT={rtt_ms_value:.0f} ms, "
                f"{bw:.0f} Mb/s, {config.block_size // KB} KB blocks"
            ),
        )
    )
    best = max(candidates, key=lambda c: c[2].expected_throughput_txs(config))
    height, fanout, model = best
    print(
        f"\nRecommended: height={height}, root fanout={fanout}, "
        f"pipelining stretch={model.pipelining_stretch:.1f} "
        f"(expected {model.expected_throughput_txs(config):,.0f} tx/s, "
        f"{model.max_speedup:.1f}x the star's sending capacity)"
    )


if __name__ == "__main__":
    main()
