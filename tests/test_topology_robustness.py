"""Unit + property tests for robustness predicates (Definitions 3-4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.builder import build_star, build_tree
from repro.topology.robustness import (
    all_internals_correct,
    can_reach_quorum,
    is_robust,
    is_robust_star,
    reachable_correct,
)
from repro.topology.tree import Tree


@pytest.fixture
def tree7():
    return Tree(0, {0: [1, 2], 1: [3, 4], 2: [5, 6]})


class TestRobustStar:
    def test_correct_leader_is_robust(self):
        star = build_star(range(4))
        assert is_robust_star(star, faulty=set())
        assert is_robust_star(star, faulty={1, 2})

    def test_faulty_leader_is_not_robust(self):
        star = build_star(range(4))
        assert not is_robust_star(star, faulty={0})


class TestRobustTree:
    def test_no_faults_is_robust(self, tree7):
        assert is_robust(tree7, set())

    def test_faulty_root_is_not_robust(self, tree7):
        assert not is_robust(tree7, {0})

    def test_faulty_internal_with_correct_child_is_not_robust(self, tree7):
        assert not is_robust(tree7, {1})

    def test_faulty_leaf_is_robust(self, tree7):
        assert is_robust(tree7, {3})
        assert is_robust(tree7, {3, 5, 6})

    def test_faulty_internal_with_all_faulty_subtree_is_robust(self, tree7):
        """§3.2: the pairwise definition admits this viable configuration."""
        assert is_robust(tree7, {1, 3, 4})
        # ... but the corollary condition rejects it (sufficient only)
        assert not all_internals_correct(tree7, {1, 3, 4})

    def test_corollary_all_internals_correct(self, tree7):
        assert all_internals_correct(tree7, {3, 4, 5})
        assert not all_internals_correct(tree7, {2})


class TestQuorumReachability:
    def test_reachable_correct_counts(self, tree7):
        assert reachable_correct(tree7, set()) == set(range(7))
        # faulty internal 1 cuts off its subtree
        assert reachable_correct(tree7, {1}) == {0, 2, 5, 6}
        assert reachable_correct(tree7, {0}) == set()

    def test_can_reach_quorum(self, tree7):
        # n=7 -> f=2 -> quorum=5
        assert can_reach_quorum(tree7, set(), 5)
        assert not can_reach_quorum(tree7, {1}, 5)  # only 4 reachable
        assert can_reach_quorum(tree7, {3, 4}, 5)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

heights = st.sampled_from([1, 2, 3])
sizes = st.integers(min_value=40, max_value=80)


@settings(max_examples=50, deadline=None)
@given(sizes, heights, st.sets(st.integers(0, 79), max_size=12))
def test_corollary_implies_definition(n, height, faulty_candidates):
    """All internal nodes correct  =>  robust (Definition 4)."""
    tree = build_tree(range(n), height=height)
    faulty = {node for node in faulty_candidates if node < n}
    if all_internals_correct(tree, faulty):
        assert is_robust(tree, faulty)


@settings(max_examples=50, deadline=None)
@given(sizes, heights, st.sets(st.integers(0, 79), max_size=12))
def test_definition_matches_pairwise_check(n, height, faulty_candidates):
    """is_robust agrees with a brute-force check of Definition 4."""
    tree = build_tree(range(n), height=height)
    faulty = {node for node in faulty_candidates if node < n}
    correct = [node for node in tree.nodes if node not in faulty]

    def brute_force():
        if tree.root in faulty:
            return False
        for i, a in enumerate(correct):
            for b in correct[i + 1 :]:
                path = tree.path_between(a, b)
                if any(node in faulty for node in path):
                    return False
        return True

    assert is_robust(tree, faulty) == brute_force()


@settings(max_examples=50, deadline=None)
@given(sizes, heights, st.sets(st.integers(0, 79), max_size=12))
def test_robust_tree_reaches_all_correct_nodes(n, height, faulty_candidates):
    """In a robust tree, the leader reaches every correct process (§3.3.3)."""
    tree = build_tree(range(n), height=height)
    faulty = {node for node in faulty_candidates if node < n}
    if is_robust(tree, faulty):
        reached = reachable_correct(tree, faulty)
        assert reached == set(tree.nodes) - faulty
