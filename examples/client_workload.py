#!/usr/bin/env python
"""Real client processes driving the chain (the system model's clients, §2).

Instead of the evaluation's saturated synthetic blocks, this example runs
client processes that submit transaction batches over the (simulated)
network to the leader's mempool, and measures *end-to-end* latency: from a
client handing over a transaction to the first replica committing the
block that contains it.

Run:  python examples/client_workload.py
"""

from repro import Cluster, ProtocolConfig
from repro.config import KB
from repro.runtime.clients import MempoolWorkload
from repro.runtime.workload import ClientClassSpec, WorkloadHarness, WorkloadSpec

N = 13
CLIENTS = 6
RATE_TXS = 3000.0  # offered load across all clients, tx/s
DURATION = 20.0


def main() -> None:
    config = ProtocolConfig(block_size=128 * KB, tx_size=512)
    cluster = Cluster(
        n=N,
        mode="kauri",
        scenario="national",
        config=config,
        seed=11,
        workload_factory=lambda node_id: MempoolWorkload(config),
    )
    spec = WorkloadSpec(
        classes=tuple(
            ClientClassSpec(name=f"client{k}", population=1,
                            rate_per_user=RATE_TXS / CLIENTS)
            for k in range(CLIENTS)
        ),
        batch_interval=0.2,
    )
    harness = WorkloadHarness(cluster, spec)

    print(f"{CLIENTS} clients offering {RATE_TXS:,.0f} tx/s to a "
          f"{N}-replica Kauri deployment\n")
    cluster.start()
    harness.start()
    cluster.run(duration=DURATION)
    cluster.check_agreement()

    metrics = cluster.metrics
    consensus = metrics.latency_stats()
    e2e = harness.e2e_latency_stats()
    committed_rate = harness.committed_txs / DURATION
    print(f"offered load        : {RATE_TXS:10,.0f} tx/s")
    print(f"committed           : {committed_rate:10,.0f} tx/s "
          f"({harness.committed_txs} transactions in {DURATION:.0f}s)")
    print(f"in flight / queued  : {harness.lost_estimate}")
    print(f"blocks committed    : {metrics.committed_blocks} "
          f"(avg {harness.committed_txs / max(1, metrics.committed_blocks):.0f} tx/block)")
    print()
    print(f"consensus latency   : p50 {consensus['p50'] * 1000:7.0f} ms "
          f"(proposal -> commit)")
    print(f"end-to-end latency  : p50 {e2e['p50'] * 1000:7.0f} ms, "
          f"p95 {e2e['p95'] * 1000:7.0f} ms (submit -> commit)")
    print()
    print("End-to-end latency exceeds consensus latency by the client's"
          "\nbatching delay plus mempool queueing at the leader.")


if __name__ == "__main__":
    main()
