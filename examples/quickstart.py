#!/usr/bin/env python
"""Quickstart: run Kauri consensus on a small simulated deployment.

Builds a 13-process deployment in the paper's "national" scenario (10 ms
RTT, 1 Gb/s links), runs 10 simulated seconds of consensus, and prints the
committed chain and headline metrics.

Run:  python examples/quickstart.py
"""

from repro import Cluster


def main() -> None:
    cluster = Cluster(n=13, mode="kauri", scenario="national", seed=7)

    tree = cluster.policy.configuration(0)
    print(f"Deployment: n={cluster.n} (tolerates f={cluster.f} Byzantine faults)")
    print(f"Initial tree: root={tree.root}, height={tree.height}, "
          f"root fanout={tree.fanout(tree.root)}")
    print(f"Internal nodes: {tree.internal_nodes}")
    print()

    cluster.start()
    cluster.run(duration=10.0)  # raises if two replicas commit different blocks

    metrics = cluster.metrics
    print(f"Committed blocks : {metrics.committed_blocks}")
    print(f"Throughput       : {metrics.throughput_txs():,.0f} tx/s")
    stats = metrics.latency_stats()
    print(f"Commit latency   : p50={stats['p50'] * 1000:.0f} ms, "
          f"p95={stats['p95'] * 1000:.0f} ms")
    print(f"View changes     : {len(metrics.view_changes)}")
    print()

    print("First five committed blocks:")
    for record in metrics.records()[:5]:
        print(f"  height={record.height:3d} hash={record.block_hash} "
              f"committed at t={record.time:.3f}s "
              f"(latency {record.latency * 1000:.0f} ms)")


if __name__ == "__main__":
    main()
