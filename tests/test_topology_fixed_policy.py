"""Tests for the fixed (hand-placed) topology policy used in §7.9."""

import pytest

from repro import Cluster, resilientdb_clusters
from repro.errors import TopologyError
from repro.runtime.cluster import build_cluster_tree
from repro.topology.reconfig import FixedTopologyPolicy


@pytest.fixture
def policy():
    return FixedTopologyPolicy(build_cluster_tree(resilientdb_clusters()))


def test_view_zero_is_the_hand_placed_tree(policy):
    assert policy.configuration(0) == policy.tree
    assert policy.is_tree_view(0)
    assert policy.leader_of(0) == policy.tree.root


def test_later_views_fall_back_to_rotating_stars(policy):
    one = policy.configuration(1)
    two = policy.configuration(2)
    assert one.is_star and two.is_star
    assert one.root != two.root
    assert not policy.is_tree_view(1)


def test_cycle_wraps_back_to_tree(policy):
    assert policy.configuration(policy.cycle_length) == policy.tree


def test_negative_view_rejected(policy):
    with pytest.raises(TopologyError):
        policy.configuration(-1)


def test_heterogeneous_deployment_recovers_from_head_crash():
    """Crash a cluster head mid-run: the fixed tree is dead, the policy
    must rotate to a star with a live leader and keep committing."""
    clusters = resilientdb_clusters(per_cluster=3)  # N=18, keeps it fast
    cluster = Cluster(mode="kauri", scenario=clusters, seed=1)
    tree = cluster.policy.configuration(0)
    head = tree.children(tree.root)[1]  # an internal cluster head
    cluster.crash_at(head, 20.0)
    cluster.start()
    cluster.run(duration=240.0)
    metrics = cluster.metrics
    assert metrics.max_view >= 1
    assert metrics.commit_gap_after(20.0) is not None
    final = cluster.policy.configuration(metrics.max_view)
    assert final.is_star
    assert final.root != head
