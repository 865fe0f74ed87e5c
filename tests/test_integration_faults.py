"""Integration tests for crash faults and reconfiguration (§5, §7.10)."""

import pytest

from repro import Cluster
from repro.topology.robustness import all_internals_correct


def run_with_crashes(crashes, n=13, mode="kauri", duration=40.0, seed=0, **kwargs):
    cluster = Cluster(
        n=n, mode=mode, scenario="national", seed=seed, crashes=crashes, **kwargs
    )
    cluster.start()
    cluster.run(duration=duration)
    return cluster


class TestSingleLeaderFault:
    """Figure 12a: one faulty leader."""

    def test_recovers_to_next_tree(self):
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        leader0 = cluster.policy.leader_of(0)
        cluster.crash_at(leader0, 5.0)
        cluster.start()
        cluster.run(duration=30.0)
        metrics = cluster.metrics
        # progress resumed after the fault
        gap = metrics.commit_gap_after(5.0)
        assert gap is not None
        # view advanced exactly once and the new configuration is a tree
        assert metrics.max_view == 1
        tree1 = cluster.policy.configuration(1)
        assert tree1.height == 2, "Kauri must keep the tree, not fall to a star"

    def test_throughput_recovers_to_prefault_level(self):
        cluster = Cluster(n=13, mode="kauri", scenario="national", seed=3)
        cluster.crash_at(cluster.policy.leader_of(0), 15.0)
        cluster.start()
        cluster.run(duration=60.0)
        before = cluster.metrics.throughput_txs(start=5.0, end=15.0)
        after = cluster.metrics.throughput_txs(start=40.0, end=60.0)
        assert after > 0.7 * before

    def test_hotstuff_also_recovers(self):
        cluster = Cluster(n=13, mode="hotstuff-bls", scenario="national")
        cluster.crash_at(cluster.policy.leader_of(0), 5.0)
        cluster.start()
        cluster.run(duration=40.0)
        assert cluster.metrics.commit_gap_after(5.0) is not None
        assert cluster.metrics.max_view == 1


class TestConsecutiveLeaderFaults:
    """Figure 12b: consecutive faulty leaders, still fewer than the bins."""

    def test_two_consecutive_roots_stay_on_trees(self):
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        assert cluster.policy.num_bins == 3  # n=13, 4 internals -> 3 bins
        for view in range(2):  # f = 2 < m = 3
            cluster.crash_at(cluster.policy.leader_of(view), 5.0)
        cluster.start()
        cluster.run(duration=80.0)
        metrics = cluster.metrics
        assert metrics.max_view == 2
        assert metrics.commit_gap_after(5.0) is not None
        # f < m: Kauri stays on trees throughout (§5.3)
        for view in range(3):
            assert cluster.policy.is_tree_view(view)

    def test_exhausting_bins_falls_back_to_star(self):
        """With f >= m consecutive faulty tree roots the cycle reaches the
        star phase (the n=13 deployment has only m=3 bins)."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        for view in range(3):
            cluster.crash_at(cluster.policy.leader_of(view), 5.0)
        cluster.start()
        cluster.run(duration=120.0)
        metrics = cluster.metrics
        assert metrics.commit_gap_after(5.0) is not None
        final = cluster.policy.configuration(metrics.max_view)
        assert final.is_star
        assert final.root not in cluster.faults.crashed


class TestInternalNodeFaults:
    def test_faulty_internal_node_triggers_reconfiguration(self):
        """A crashed internal (non-root) node breaks robustness; the bins
        rotate it out of the internal positions (Algorithm 4)."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        tree0 = cluster.policy.configuration(0)
        internal = next(
            node for node in tree0.internal_nodes if node != tree0.root
        )
        cluster.crash_at(internal, 5.0)
        cluster.start()
        cluster.run(duration=40.0)
        metrics = cluster.metrics
        assert metrics.max_view >= 1
        final_view = metrics.max_view
        tree_after = cluster.policy.configuration(final_view)
        assert all_internals_correct(tree_after, {internal})
        assert metrics.commit_gap_after(5.0) is not None

    def test_faulty_leaf_does_not_stop_progress(self):
        """Leaves are not internal: the tree stays robust (Definition 4)."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        tree0 = cluster.policy.configuration(0)
        leaf = tree0.leaves[0]
        cluster.crash_at(leaf, 5.0)
        cluster.start()
        cluster.run(duration=30.0)
        assert cluster.metrics.max_view == 0  # no reconfiguration needed
        assert cluster.metrics.commit_gap_after(5.1) is not None

    def test_f_crashed_leaves_still_live(self):
        """Quorum n-f reachable with f crashed leaves."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        tree0 = cluster.policy.configuration(0)
        for leaf in tree0.leaves[:4]:  # f = 4 for n = 13
            cluster.crash_at(leaf, 5.0)
        cluster.start()
        cluster.run(duration=30.0)
        assert cluster.metrics.commit_gap_after(5.5) is not None


class TestStarFallback:
    """Figure 12c: f >= m faults force the §5.3 star fallback."""

    def test_poisoned_bins_fall_back_to_star_and_recover(self):
        cluster = Cluster(n=13, mode="kauri", scenario="national", seed=1)
        m = cluster.policy.num_bins
        f = cluster.f
        assert f >= m, "scenario requires f >= m to exhaust the bins"
        # fail one internal node of every bin's tree at t=5
        faulty = set()
        for view in range(m):
            tree = cluster.policy.configuration(view)
            victim = next(
                node
                for node in tree.internal_nodes
                if node != tree.root and node not in faulty
            )
            faulty.add(victim)
        # also fail the first star leaders that are not already faulty
        view = m
        while len(faulty) < f:
            leader = cluster.policy.leader_of(view)
            if leader not in faulty:
                faulty.add(leader)
            view += 1
        for node in faulty:
            cluster.crash_at(node, 5.0)
        cluster.start()
        cluster.run(duration=600.0)
        metrics = cluster.metrics
        # §5.3: at most m + f + 1 reconfigurations
        assert 0 < metrics.max_view <= m + f + 1
        final_config = cluster.policy.configuration(metrics.max_view)
        assert final_config.is_star, "exhausted bins must degrade to a star"
        assert final_config.root not in faulty
        assert metrics.commit_gap_after(5.0) is not None


class TestCrashSemantics:
    def test_crashed_node_stops_committing(self):
        cluster = Cluster(n=7, mode="kauri", scenario="national")
        cluster.crash_at(3, 2.0)
        cluster.start()
        cluster.run(duration=10.0)
        committed_at_crash = None
        # node 3 must not have committed anything after t=2
        node = cluster.nodes[3]
        assert node.stopped
        survivors = [x for x in cluster.nodes if x.node_id != 3]
        assert max(s.committed_height for s in survivors) > node.committed_height

    def test_fault_free_run_has_no_view_changes(self):
        cluster = run_with_crashes([], duration=20.0)
        assert cluster.metrics.max_view == 0
