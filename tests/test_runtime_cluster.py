"""Unit tests for cluster wiring and the experiment harness."""

import pytest

from repro import Cluster, ProtocolConfig, resilientdb_clusters, run_experiment
from repro.errors import ConfigError, ConsensusError
from repro.obs.report import build_report
from repro.runtime.cluster import build_cluster_tree, representative_params


class TestClusterWiring:
    def test_nodes_registered_and_keyed(self):
        cluster = Cluster(n=7)
        assert len(cluster.nodes) == 7
        for node in cluster.nodes:
            assert node.keypair.node_id == node.node_id
        assert cluster.f == 2

    def test_mode_selects_scheme_and_policy(self):
        kauri = Cluster(n=7, mode="kauri")
        assert kauri.scheme.name == "bls"
        assert kauri.policy.configuration(0).height == 2
        hotstuff = Cluster(n=7, mode="hotstuff-secp")
        assert hotstuff.scheme.name == "secp256k1"
        assert hotstuff.policy.configuration(0).is_star

    def test_model_cached_per_shape(self):
        cluster = Cluster(n=7)
        tree = cluster.policy.configuration(0)
        assert cluster.model_for(tree) is cluster.model_for(tree)

    def test_scenario_string_resolution(self):
        for name in ("global", "regional", "national"):
            cluster = Cluster(n=7, scenario=name)
            assert cluster.scenario.name == name

    def test_custom_network_params(self):
        from repro.config import NetworkParams

        params = NetworkParams("custom", rtt=0.05, bandwidth_bps=1e7)
        cluster = Cluster(n=7, scenario=params)
        assert cluster.scenario == params


class TestHeterogeneous:
    def test_cluster_tree_placement(self):
        """§7.9: root in Oregon, one internal head per cluster, leaves
        beside their head."""
        clusters = resilientdb_clusters()
        tree = build_cluster_tree(clusters)
        assert tree.root == 0  # Oregon
        assert tree.height == 2
        heads = tree.children(tree.root)
        assert len(heads) == 6
        for head in heads:
            head_cluster = clusters.cluster_of(head)
            for leaf in tree.children(head):
                assert clusters.cluster_of(leaf) == head_cluster
        assert set(tree.nodes) == set(range(60))

    def test_n_derived_from_clusters(self):
        cluster = Cluster(scenario=resilientdb_clusters())
        assert cluster.n == 60
        with pytest.raises(ConfigError):
            Cluster(n=100, scenario=resilientdb_clusters())

    def test_representative_params(self):
        clusters = resilientdb_clusters()
        params = representative_params(clusters)
        assert 0.03 < params.rtt < 0.3
        assert params.bandwidth_bps > 0

    def test_hotstuff_on_clusters_uses_star(self):
        cluster = Cluster(mode="hotstuff-bls", scenario=resilientdb_clusters())
        assert cluster.policy.configuration(0).is_star


class TestAgreementCheck:
    def test_detects_cross_replica_conflict(self):
        from repro.consensus.block import Block, GENESIS_HASH

        cluster = Cluster(n=7)
        a = Block.create(1, 0, GENESIS_HASH, 0, 10, 1, 0.0, salt=1)
        b = Block.create(1, 0, GENESIS_HASH, 0, 10, 1, 0.0, salt=2)
        cluster.nodes[0].store.add(a)
        cluster.nodes[0].store.commit(a)
        cluster.nodes[1].store.add(b)
        cluster.nodes[1].store.commit(b)
        with pytest.raises(ConsensusError, match="AGREEMENT"):
            cluster.check_agreement()

    def test_byzantine_nodes_excluded_from_check(self):
        from repro.consensus.block import Block, GENESIS_HASH
        from repro.consensus.byzantine import SilentNode

        cluster = Cluster(n=7, byzantine={6: SilentNode})
        a = Block.create(1, 0, GENESIS_HASH, 0, 10, 1, 0.0, salt=1)
        b = Block.create(1, 0, GENESIS_HASH, 0, 10, 1, 0.0, salt=2)
        cluster.nodes[0].store.add(a)
        cluster.nodes[0].store.commit(a)
        cluster.nodes[6].store.add(b)
        cluster.nodes[6].store.commit(b)  # byzantine replica's fake chain
        cluster.check_agreement()  # must not raise


class TestStatsSummary:
    """The RunReport's per-node rows carry the load-balancing evidence."""

    def test_snapshot_after_run(self):
        cluster = Cluster(n=7, mode="kauri", scenario="national")
        cluster.start()
        cluster.run(duration=5.0)
        report = build_report(cluster)
        assert report["run"]["simulated_seconds"] == pytest.approx(5.0)
        assert report["totals"]["committed_blocks"] > 0
        assert report["totals"]["messages_sent"] > report["totals"]["committed_blocks"]
        leader = report["saturation"]["leader"]
        assert report["nodes"][leader]["nic"]["bytes_sent"] > 0
        assert sum(node["cpu"]["busy_time"] for node in report["nodes"]) > 0
        assert report["totals"]["view_changes"] == 0

    def test_load_balancing_visible_in_stats(self):
        """The tree's point: the leader's share of bytes sent is bounded by
        its fanout, not by N (§3.2)."""
        cluster = Cluster(n=31, mode="kauri", scenario="national")
        cluster.start()
        cluster.run(duration=5.0)
        leader_share = _leader_byte_share(build_report(cluster))
        tree = cluster.policy.configuration(0)
        internals = len(tree.internal_nodes)
        assert leader_share < 2.0 / internals + 0.15

    def test_star_concentrates_load_on_leader(self):
        cluster = Cluster(n=31, mode="hotstuff-bls", scenario="national")
        cluster.start()
        cluster.run(duration=20.0)
        assert _leader_byte_share(build_report(cluster)) > 0.5


def _leader_byte_share(report) -> float:
    sent = [node["nic"]["bytes_sent"] for node in report["nodes"]]
    return sent[report["saturation"]["leader"]] / sum(sent)


class TestRunExperiment:
    def test_basic_result_fields(self):
        result = run_experiment(
            mode="kauri", scenario="national", n=7, duration=5.0, seed=1
        )
        assert result.mode == "kauri"
        assert result.scenario == "national"
        assert result.n == 7
        assert result.throughput_txs > 0
        assert result.committed_blocks > 0
        assert result.latency["count"] > 0
        assert 0.0 <= result.leader_cpu_utilization <= 1.0
        assert result.view_changes == 0

    def test_block_size_and_stretch_override(self):
        result = run_experiment(
            mode="kauri",
            scenario="national",
            n=7,
            duration=5.0,
            block_size=32 * 1024,
            stretch=2.0,
        )
        assert result.block_size == 32 * 1024
        assert result.stretch == 2.0

    def test_crash_plan_passthrough(self):
        result = run_experiment(
            mode="kauri",
            scenario="national",
            n=7,
            duration=20.0,
            crashes=[(0, 5.0)],
        )
        assert result.max_view >= 1

    def test_max_commits_bounds_runtime(self):
        result = run_experiment(
            mode="kauri", scenario="national", n=7, duration=600.0, max_commits=10
        )
        assert result.duration < 600.0
        assert result.committed_blocks >= 10
