"""Tests for automatic configuration (§8 future work) and adaptive pacing
(§6 future work)."""

import pytest

from repro import Cluster, ProtocolConfig
from repro.config import GLOBAL, KB, NATIONAL, REGIONAL, resilientdb_clusters
from repro.core.autotune import (
    cluster_tree_rooted_at,
    enumerate_candidates,
    tune_heterogeneous,
    tune_homogeneous,
)
from repro.core.perfmodel import PerfModel
from repro.core.pipeline import AdaptivePacer
from repro.crypto.costs import BLS_COSTS
from repro.errors import ConfigError


class TestTuneHomogeneous:
    def test_global_prefers_trees(self):
        """Bandwidth-starved deployments want deep trees, never the star."""
        best = tune_homogeneous(400, GLOBAL, objective="throughput")
        assert best.height >= 2
        assert best.expected_throughput_txs > 0
        assert best.stretch >= 0

    def test_latency_objective_prefers_shallow(self):
        tput = tune_homogeneous(100, GLOBAL, objective="throughput")
        lat = tune_homogeneous(100, GLOBAL, objective="latency")
        assert lat.expected_latency <= tput.expected_latency

    def test_candidates_cover_star_and_trees(self):
        candidates = enumerate_candidates(100, REGIONAL, ProtocolConfig())
        heights = {c.height for c in candidates}
        assert 1 in heights and 2 in heights and 3 in heights

    def test_small_system_feasible(self):
        best = tune_homogeneous(7, NATIONAL)
        assert best.root_fanout >= 1

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigError):
            tune_homogeneous(100, GLOBAL, objective="vibes")

    def test_describe(self):
        best = tune_homogeneous(100, GLOBAL)
        assert "stretch" in best.describe()

    def test_tuned_config_runs_and_beats_star(self):
        """End-to-end: the tuned tree outperforms the star baseline."""
        from repro import run_experiment

        best = tune_homogeneous(31, GLOBAL)
        tree_result = run_experiment(
            mode="kauri",
            scenario="global",
            n=31,
            height=best.height,
            root_fanout=best.root_fanout,
            stretch=best.stretch,
            duration=40.0,
            max_commits=40,
        )
        star_result = run_experiment(
            mode="hotstuff-bls", scenario="global", n=31, duration=120.0, max_commits=40
        )
        assert tree_result.throughput_txs > star_result.throughput_txs


class TestTuneHeterogeneous:
    def test_picks_best_connected_cluster(self):
        """§7.9 places the leader in Oregon by hand; the tuner must agree."""
        placement = tune_heterogeneous(resilientdb_clusters())
        assert placement.leader_cluster == 0
        assert placement.tree.root in resilientdb_clusters().members(0)
        assert placement.stretch > 0

    def test_tree_layout_keeps_leaves_near_heads(self):
        clusters = resilientdb_clusters()
        tree = cluster_tree_rooted_at(clusters, leader_cluster=2)
        assert clusters.cluster_of(tree.root) == 2
        for head in tree.children(tree.root):
            for leaf in tree.children(head):
                assert clusters.cluster_of(leaf) == clusters.cluster_of(head)

    def test_all_processes_placed(self):
        clusters = resilientdb_clusters(per_cluster=4)
        tree = cluster_tree_rooted_at(clusters, leader_cluster=5)
        assert set(tree.nodes) == set(range(clusters.n))


class TestAdaptivePacer:
    def model(self):
        return PerfModel.for_topology(100, 2, 10, GLOBAL, 250 * KB, BLS_COSTS)

    class FakeNic:
        def __init__(self, backlog):
            self.backlog = backlog

    def test_backs_off_under_congestion(self):
        model = self.model()
        pacer = AdaptivePacer(model, initial_stretch=10.0)
        before = pacer.interval
        pacer.next_interval(self.FakeNic(backlog=10 * model.sending_time))
        assert pacer.interval > before

    def test_speeds_up_when_idle(self):
        model = self.model()
        pacer = AdaptivePacer(model, initial_stretch=0.1)
        before = pacer.interval
        pacer.next_interval(self.FakeNic(backlog=0.0))
        assert pacer.interval < before

    def test_interval_bounded(self):
        model = self.model()
        pacer = AdaptivePacer(model, initial_stretch=1.0)
        for _ in range(200):
            pacer.next_interval(self.FakeNic(backlog=1e9))
        assert pacer.interval <= model.round_time
        for _ in range(500):
            pacer.next_interval(self.FakeNic(backlog=0.0))
        assert pacer.interval >= model.bottleneck_time * 0.9 - 1e-9

    def test_steady_zone_leaves_interval_alone(self):
        model = self.model()
        pacer = AdaptivePacer(model, initial_stretch=1.0)
        before = pacer.interval
        pacer.next_interval(self.FakeNic(backlog=1.0 * model.sending_time))
        assert pacer.interval == before
        assert pacer.adjustments == 0

    def test_effective_stretch_inverse(self):
        model = self.model()
        pacer = AdaptivePacer(model, initial_stretch=1.5)
        assert pacer.effective_stretch == pytest.approx(1.5, rel=0.05)

    def test_validation(self):
        model = self.model()
        with pytest.raises(ConfigError):
            AdaptivePacer(model, 1.0, backoff=0.9)
        with pytest.raises(ConfigError):
            AdaptivePacer(model, 1.0, speedup=1.5)
        with pytest.raises(ConfigError):
            AdaptivePacer(model, 1.0, high_watermark=0.1, low_watermark=0.5)


class TestAdaptiveStretchEndToEnd:
    def test_recovers_from_gross_overpipelining(self):
        """Start with an 8x-over stretch: static churns, adaptive recovers."""

        def run(adaptive):
            config = ProtocolConfig(stretch=12.0, adaptive_stretch=adaptive)
            cluster = Cluster(n=31, mode="kauri", scenario="global", config=config)
            cluster.start()
            cluster.run(duration=120.0, max_commits=100)
            cluster.check_agreement()
            return cluster

        adaptive = run(True)
        static = run(False)
        # adaptive pacing must commit more than the churning static config
        # (which may commit nothing at all)
        assert adaptive.metrics.committed_blocks > static.metrics.committed_blocks
        assert adaptive.metrics.committed_blocks > 0
        leader = adaptive.policy.leader_of(0)
        assert adaptive.nodes[leader].pacer is not None
        assert adaptive.nodes[leader].pacer.adjustments > 0

    def test_adaptive_matches_model_from_good_start(self):
        config_static = ProtocolConfig()
        config_adaptive = ProtocolConfig(adaptive_stretch=True)

        def run(config):
            cluster = Cluster(n=31, mode="kauri", scenario="global", config=config)
            cluster.start()
            cluster.run(duration=90.0, max_commits=80)
            cluster.check_agreement()
            return cluster.metrics.throughput_txs(start=20.0)

        assert run(config_adaptive) > 0.7 * run(config_static)
