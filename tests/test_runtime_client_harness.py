"""End-to-end client path: submission over the network, mempools,
commit notifications, submit-to-commit latency (§2's client processes)."""

import hashlib

import pytest

from repro import Cluster, ProtocolConfig
from repro.config import KB
from repro.errors import ConfigError
from repro.runtime.clients import MempoolWorkload, TxChunk
from repro.runtime.workload import ClientClassSpec, WorkloadHarness, WorkloadSpec
from tests.reference_mempool import expand_runs


def client_spec(rate=2000.0, clients=4):
    """``clients`` single-user classes sharing ``rate`` tx/s evenly, each
    submitting exactly ``rate / clients * 0.2`` txs per 0.2 s tick."""
    return WorkloadSpec(
        classes=tuple(
            ClientClassSpec(name=f"client{k}", population=1,
                            rate_per_user=rate / clients)
            for k in range(clients)
        ),
        batch_interval=0.2,
        jitter=False,
    )


def make_client_cluster(n=7, rate=2000.0, clients=4, block_kb=64, seed=0):
    config = ProtocolConfig(block_size=block_kb * KB)
    cluster = Cluster(
        n=n,
        mode="kauri",
        scenario="national",
        config=config,
        seed=seed,
        workload_factory=lambda node_id: MempoolWorkload(config),
    )
    harness = WorkloadHarness(cluster, client_spec(rate, clients))
    return cluster, harness


class TestMempoolWorkload:
    def test_fill_capped_by_txs_per_block_not_just_bytes(self):
        """Tiny txs must not overfill a block past config.txs_per_block.

        With 4 KB blocks and 1 KB nominal txs the protocol caps blocks at
        4 txs; 100-byte txs would fit 40 by the byte budget alone."""
        config = ProtocolConfig(block_size=4096, tx_size=1024)
        assert config.txs_per_block == 4
        pool = MempoolWorkload(config)
        pool.admit_batch([TxChunk(0, 0, 20, 100, 0.0)])
        fill = pool.next_fill(1.0)
        assert fill.num_txs == 4
        assert pool.queued_txs == 16

    def test_drains_oldest_first_up_to_block_size(self):
        config = ProtocolConfig(block_size=1024, tx_size=512)
        pool = MempoolWorkload(config)
        pool.admit_batch([TxChunk(0, 0, 5, 400, 0.0)])
        fill = pool.next_fill(1.0)
        assert fill.num_txs == 2  # 2 * 400 <= 1024 < 3 * 400
        assert fill.payload_size == 800
        assert fill.tx_runs == (TxChunk(0, 0, 2, 400, 0.0),)
        assert expand_runs(fill.tx_runs) == ((0, 0), (0, 1))
        assert pool.queued_txs == 3

    def test_empty_mempool_gives_empty_block(self):
        pool = MempoolWorkload(ProtocolConfig())
        fill = pool.next_fill(0.0)
        assert fill.num_txs == 0
        assert fill.tx_runs == ()

    def test_non_tx_garbage_ignored(self):
        pool = MempoolWorkload(ProtocolConfig())
        pool.admit_batch(["junk", 42])
        assert pool.queued_txs == 0


class TestClientHarness:
    def test_end_to_end_latency_measured(self):
        cluster, harness = make_client_cluster()
        cluster.start()
        harness.start()
        cluster.run(duration=15.0)
        stats = harness.e2e_latency_stats()
        assert stats["count"] > 100
        # e2e latency includes submission + consensus: above consensus-only
        consensus_p50 = cluster.metrics.latency_stats()["p50"]
        assert stats["p50"] > consensus_p50 * 0.9
        assert stats["p95"] >= stats["p50"]

    def test_committed_txs_bounded_by_offered_load(self):
        cluster, harness = make_client_cluster(rate=1000.0)
        cluster.start()
        harness.start()
        cluster.run(duration=10.0)
        assert harness.committed_txs <= 1000.0 * 10.0 * 1.01

    def test_blocks_carry_real_tx_ids(self):
        cluster, harness = make_client_cluster()
        cluster.start()
        harness.start()
        cluster.run(duration=10.0)
        committed_with_txs = [
            r for r in cluster.metrics.records() if r.num_txs > 0
        ]
        assert committed_with_txs
        leader = cluster.nodes[cluster.policy.leader_of(0)]
        block = next(
            b for b in leader.store.committed_chain() if b.tx_runs
        )
        assert all(isinstance(run, TxChunk) for run in block.tx_runs)
        assert sum(run.count for run in block.tx_runs) == block.num_txs

    def test_clients_survive_leader_change(self):
        cluster, harness = make_client_cluster(seed=2)
        cluster.crash_at(cluster.policy.leader_of(0), 5.0)
        cluster.start()
        harness.start()
        cluster.run(duration=30.0)
        # commits resumed with client load after the view change
        assert harness.committed_txs > 0
        assert cluster.metrics.commit_gap_after(6.0) is not None

    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(classes=())  # no clients
        with pytest.raises(ConfigError):
            ClientClassSpec(name="c", population=1, rate_per_user=0)
        with pytest.raises(ConfigError):
            WorkloadSpec(classes=client_spec().classes, batch_interval=0)

    def test_empty_harness_reports_full_e2e_stat_shape(self):
        """e2e_latency_stats has latency_summary's key set, including
        the tail percentiles, even before any commit is observed."""
        cluster, harness = make_client_cluster()
        stats = harness.e2e_latency_stats()
        assert set(stats) == {"count", "mean", "max", "p50", "p95", "p99", "p999"}
        assert stats["count"] == 0
        assert stats["p999"] == 0.0

    def test_wrap_is_idempotent_across_harnesses(self):
        """A second harness on the same cluster must not stack a second
        client-aware wrapper around the netem (the double-wrap bug)."""
        from repro.runtime.clients import _ClientAwareNetem

        cluster, _ = make_client_cluster()
        WorkloadHarness(cluster, client_spec(rate=100.0, clients=2))
        netem = cluster.network.netem
        assert isinstance(netem, _ClientAwareNetem)
        assert not isinstance(netem._base, _ClientAwareNetem)

    def test_heterogeneous_clients_inherit_host_links(self):
        """Client ids map onto node link parameters under cluster netem."""
        from repro import resilientdb_clusters

        clusters = resilientdb_clusters(per_cluster=2)
        config = ProtocolConfig(block_size=64 * KB)
        cluster = Cluster(
            mode="kauri",
            scenario=clusters,
            config=config,
            workload_factory=lambda node_id: MempoolWorkload(config),
        )
        harness = WorkloadHarness(cluster, client_spec(rate=500.0, clients=2))
        cluster.start()
        harness.start()
        cluster.run(duration=20.0)
        assert harness.committed_txs > 0


class TestPinnedClientPath:
    """Runs pinned from the per-transaction client harness this one
    replaced (4 clients at 500 tx/s each, 0.2 s batches): event count,
    committed and lost transactions, and a SHA-256 over every node's
    committed chain (in height order) of block tx ids. The chunked path must reproduce them
    exactly; a change here means simulated behaviour moved."""

    @staticmethod
    def run_pinned(seed, duration, crash=False):
        cluster, harness = make_client_cluster(seed=seed)
        if crash:
            cluster.crash_at(cluster.policy.leader_of(0), 5.0)
        cluster.start()
        harness.start()
        cluster.run(duration=duration)
        logs = [
            [expand_runs(block.tx_runs)
             for block in node.store.committed_chain()]
            for node in cluster.nodes
        ]
        digest = hashlib.sha256(repr(logs).encode()).hexdigest()
        return (cluster.sim.events_processed, harness.committed_txs,
                harness.lost_estimate, digest)

    def test_fault_free_run(self):
        assert self.run_pinned(seed=0, duration=15.0) == (
            104_398, 28_400, 1_600,
            "326e0a305dc56c025a23f517a5cd6d627a74a17dc88e9725da86aeaa52220b24",
        )

    def test_leader_crash_run(self):
        assert self.run_pinned(seed=2, duration=30.0, crash=True) == (
            153_535, 52_800, 7_200,
            "cf78c723e46c1321d4c243f70cfba3f4bea63f5970aa9c585fec7cd0046880dc",
        )
