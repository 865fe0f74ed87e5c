#!/usr/bin/env python
"""Fault injection and reconfiguration, in the style of Figure 12 (§7.10).

Crashes the consensus leader mid-run and plots (in ASCII) the throughput
dip and recovery. Kauri's bin-based reconfiguration (Algorithm 4) moves to
a fresh tree whose internal nodes come from an untouched bin, so the
system recovers without falling back to a star.

Run:  python examples/fault_recovery.py
"""

from repro import Cluster

DURATION = 60.0
FAULT_TIME = 20.0
BUCKET = 2.0


def ascii_series(series, width=50):
    peak = max(value for _, value in series) or 1.0
    lines = []
    for time, value in series:
        bar = "#" * int(width * value / peak)
        lines.append(f"  t={time:5.0f}s | {bar:<{width}} {value:8.0f} tx/s")
    return "\n".join(lines)


def main() -> None:
    cluster = Cluster(n=31, mode="kauri", scenario="national", seed=3)
    leader = cluster.policy.leader_of(0)
    print(f"Crashing the view-0 leader (process {leader}) at t={FAULT_TIME:.0f}s\n")
    cluster.crash_at(leader, FAULT_TIME)

    cluster.start()
    cluster.run(duration=DURATION)

    metrics = cluster.metrics
    print(ascii_series(metrics.timeseries_txs(bucket=BUCKET)))
    print()
    gap = metrics.commit_gap_after(FAULT_TIME)
    print(f"Recovery time (first commit after the fault): {gap:.2f}s")
    print(f"Reconfigurations: {metrics.max_view}")
    next_tree = cluster.policy.configuration(metrics.max_view)
    kind = "star" if next_tree.is_star else f"tree (height {next_tree.height})"
    print(f"Post-fault topology: {kind}, new leader = {next_tree.root}")
    before = metrics.throughput_txs(start=5.0, end=FAULT_TIME)
    after = metrics.throughput_txs(start=FAULT_TIME + (gap or 0), end=DURATION)
    print(f"Throughput before fault: {before:8.0f} tx/s")
    print(f"Throughput after fault : {after:8.0f} tx/s")


if __name__ == "__main__":
    main()
