#!/usr/bin/env python
"""State machine replication: a key-value store on top of Kauri.

Consensus orders blocks; this example gives the order meaning. Clients
issue ``set`` operations through the network; each replica applies its own
committed chain to a local KV state machine; at the end every replica's
state digest is identical -- the SMR contract, demonstrated end to end.

Run:  python examples/replicated_kvstore.py
"""

from repro import Cluster, ProtocolConfig
from repro.app import OpRegistry, attach_kv_application
from repro.config import KB
from repro.runtime.clients import MempoolWorkload
from repro.runtime.workload import ClientClassSpec, WorkloadHarness, WorkloadSpec

N = 13
DURATION = 15.0


def main() -> None:
    config = ProtocolConfig(block_size=64 * KB)
    cluster = Cluster(
        n=N,
        mode="kauri",
        scenario="national",
        config=config,
        seed=21,
        workload_factory=lambda node_id: MempoolWorkload(config),
    )
    registry = OpRegistry()
    spec = WorkloadSpec(
        classes=(ClientClassSpec(name="kv", population=4, rate_per_user=500.0),),
        keyspace=32,
        batch_interval=0.2,
    )
    harness = WorkloadHarness(cluster, spec, registry=registry)
    machines = attach_kv_application(cluster, registry)

    cluster.start()
    harness.start()
    cluster.run(duration=DURATION)
    cluster.check_agreement()

    print(f"{N} replicas, {DURATION:.0f}s of simulated time, "
          f"{len(registry)} operations submitted\n")
    print(f"{'replica':>8} {'height':>7} {'ops applied':>12} {'state digest':>18}")
    for node_id, machine in sorted(machines.items()):
        print(f"{node_id:>8} {machine.applied_height:>7} "
              f"{machine.ops_applied:>12} {machine.digest():>18}")

    digests = {m.digest() for m in machines.values() if m.applied_height ==
               max(x.applied_height for x in machines.values())}
    print(f"\nDistinct state digests at the common height: {len(digests)}")
    assert len(digests) == 1, "state divergence!"
    sample = machines[0]
    some_key = next(iter(sorted(sample.state)))
    print(f"Example entry on every replica: {some_key} = {sample.get(some_key)}")
    print("Replicated state machine verified: all replicas agree "
          "byte-for-byte.")


if __name__ == "__main__":
    main()
