"""Tests for state machine replication: the KV store application."""

import pytest

from repro import Cluster, ProtocolConfig
from repro.app import (
    KvOp,
    KvStateMachine,
    OpRegistry,
    attach_kv_application,
)
from repro.config import KB
from repro.consensus.block import GENESIS_HASH, Block
from repro.errors import ConfigError
from repro.runtime.clients import MempoolWorkload
from repro.runtime.workload import ClientClassSpec, WorkloadHarness, WorkloadSpec


def kv_cluster(mode="kauri", n=7, rate=2000.0, seed=0):
    config = ProtocolConfig(block_size=64 * KB)
    cluster = Cluster(
        n=n,
        mode=mode,
        scenario="national",
        config=config,
        seed=seed,
        workload_factory=lambda node_id: MempoolWorkload(config),
    )
    registry = OpRegistry()
    spec = WorkloadSpec(
        classes=tuple(
            ClientClassSpec(name=f"kv{k}", population=1, rate_per_user=rate / 3)
            for k in range(3)
        ),
        keyspace=64,
        batch_interval=0.2,
        jitter=False,
    )
    harness = WorkloadHarness(cluster, spec, registry=registry)
    machines = attach_kv_application(cluster, registry)
    return cluster, harness, machines, registry


class TestStateMachineUnit:
    def test_apply_set_and_delete(self):
        registry = OpRegistry()
        registry.record((0, 0), KvOp("set", "a", "1"))
        registry.record((0, 1), KvOp("set", "b", "2"))
        registry.record((0, 2), KvOp("delete", "a"))
        machine = KvStateMachine(registry)
        block1 = Block.create(1, 0, GENESIS_HASH, 0, 100, 2, 0.0,
                              tx_ids=((0, 0), (0, 1)))
        block2 = Block.create(2, 0, block1.hash, 0, 100, 1, 0.0,
                              tx_ids=((0, 2),))
        machine.apply_block(block1)
        assert machine.get("a") == "1"
        machine.apply_block(block2)
        assert machine.get("a") is None
        assert machine.get("b") == "2"
        assert machine.ops_applied == 3

    def test_out_of_order_apply_rejected(self):
        machine = KvStateMachine(OpRegistry())
        late = Block.create(5, 0, GENESIS_HASH, 0, 100, 0, 0.0)
        with pytest.raises(ConfigError):
            machine.apply_block(late)

    def test_digest_depends_on_state_and_height(self):
        registry = OpRegistry()
        registry.record((0, 0), KvOp("set", "x", "1"))
        a, b = KvStateMachine(registry), KvStateMachine(registry)
        block = Block.create(1, 0, GENESIS_HASH, 0, 100, 1, 0.0, tx_ids=((0, 0),))
        a.apply_block(block)
        assert a.digest() != b.digest()
        b.apply_block(block)
        assert a.digest() == b.digest()

    def test_unknown_tx_counted_not_fatal(self):
        machine = KvStateMachine(OpRegistry())
        block = Block.create(1, 0, GENESIS_HASH, 0, 100, 1, 0.0, tx_ids=((9, 9),))
        machine.apply_block(block)
        assert machine.unknown_txs == 1

    def test_op_validation(self):
        with pytest.raises(ConfigError):
            KvOp("increment", "a")
        with pytest.raises(ConfigError):
            KvOp("set", "a")


class TestReplication:
    def test_all_replicas_reach_identical_state(self):
        cluster, harness, machines, _ = kv_cluster()
        cluster.start()
        harness.start()
        cluster.run(duration=15.0)
        cluster.check_agreement()
        applied = [m for m in machines.values() if m.ops_applied > 0]
        assert len(applied) == 7  # every replica applied operations
        # replicas at the same height have byte-identical state
        by_height = {}
        for machine in machines.values():
            by_height.setdefault(machine.applied_height, set()).add(machine.digest())
        for height, digests in by_height.items():
            assert len(digests) == 1, f"state divergence at height {height}"
        assert any(m.ops_applied > 100 for m in machines.values())
        assert all(m.unknown_txs == 0 for m in machines.values())

    def test_replay_matches_live_application(self):
        cluster, harness, machines, registry = kv_cluster(seed=3)
        cluster.start()
        harness.start()
        cluster.run(duration=10.0)
        node = cluster.nodes[2]
        replayed = KvStateMachine(registry)
        replayed.replay(node.store.commit_log)
        assert replayed.digest() == machines[2].digest()

    def test_replication_survives_leader_crash(self):
        cluster, harness, machines, _ = kv_cluster(seed=5)
        cluster.crash_at(cluster.policy.leader_of(0), 5.0)
        cluster.start()
        harness.start()
        cluster.run(duration=25.0)
        cluster.check_agreement()
        correct = [
            machines[n.node_id]
            for n in cluster.nodes
            if not n.stopped
        ]
        heights = {m.applied_height for m in correct}
        reference = {}
        for machine in correct:
            reference.setdefault(machine.applied_height, machine.digest())
            assert reference[machine.applied_height] == machine.digest()
        assert max(heights) > 0

    def test_pbft_replication(self):
        cluster, harness, machines, _ = kv_cluster(mode="pbft")
        cluster.start()
        harness.start()
        cluster.run(duration=10.0)
        cluster.check_agreement()
        digests = {
            (m.applied_height, m.digest()) for m in machines.values()
        }
        heights = {h for h, _ in digests}
        assert len(digests) == len(heights)  # one digest per height
        assert any(m.ops_applied > 0 for m in machines.values())
