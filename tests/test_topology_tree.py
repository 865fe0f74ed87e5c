"""Unit tests for the Tree structure."""

import pytest

from repro.errors import TopologyError
from repro.topology.tree import Tree


@pytest.fixture
def seven_node_tree():
    """The paper's Figure 1 example: P0 root, fanout 2, height 2."""
    return Tree(0, {0: [1, 2], 1: [3, 4], 2: [5, 6]})


def test_basic_structure(seven_node_tree):
    t = seven_node_tree
    assert t.root == 0
    assert t.n == 7
    assert t.nodes == (0, 1, 2, 3, 4, 5, 6)
    assert t.height == 2
    assert t.children(0) == (1, 2)
    assert t.children(3) == ()
    assert t.parent(0) is None
    assert t.parent(3) == 1
    assert t.fanout(0) == 2
    assert t.fanout(5) == 0


def test_internal_nodes_and_leaves(seven_node_tree):
    assert seven_node_tree.internal_nodes == (0, 1, 2)
    assert seven_node_tree.leaves == (3, 4, 5, 6)


def test_depths(seven_node_tree):
    assert seven_node_tree.depth(0) == 0
    assert seven_node_tree.depth(2) == 1
    assert seven_node_tree.depth(6) == 2


def test_star_properties():
    star = Tree(0, {0: [1, 2, 3]})
    assert star.is_star
    assert star.height == 1
    assert star.internal_nodes == (0,)
    assert star.leaves == (1, 2, 3)


def test_single_node_tree():
    solo = Tree(5, {})
    assert solo.n == 1
    assert solo.height == 0
    assert solo.is_star
    assert solo.leaves == (5,)


def test_subtree(seven_node_tree):
    assert set(seven_node_tree.subtree(1)) == {1, 3, 4}
    assert set(seven_node_tree.subtree(0)) == set(range(7))
    assert seven_node_tree.subtree(6) == (6,)


def test_path_to_root(seven_node_tree):
    assert seven_node_tree.path_to_root(6) == (6, 2, 0)
    assert seven_node_tree.path_to_root(0) == (0,)


def test_path_between(seven_node_tree):
    assert seven_node_tree.path_between(3, 4) == (3, 1, 4)
    assert seven_node_tree.path_between(3, 6) == (3, 1, 0, 2, 6)
    assert seven_node_tree.path_between(3, 3) == (3,)
    assert seven_node_tree.path_between(0, 5) == (0, 2, 5)


def test_edges(seven_node_tree):
    assert set(seven_node_tree.edges()) == {
        (0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6),
    }


def test_contains(seven_node_tree):
    assert 3 in seven_node_tree
    assert 99 not in seven_node_tree


def test_unknown_node_rejected(seven_node_tree):
    with pytest.raises(TopologyError):
        seven_node_tree.children(99)
    with pytest.raises(TopologyError):
        seven_node_tree.depth(99)


def test_cycle_rejected():
    with pytest.raises(TopologyError):
        Tree(0, {0: [1], 1: [0]})


def test_two_parents_rejected():
    with pytest.raises(TopologyError):
        Tree(0, {0: [1, 2], 1: [3], 2: [3]})


def test_unreachable_nodes_rejected():
    with pytest.raises(TopologyError):
        Tree(0, {0: [1], 5: [6]})


def test_equality_and_hash():
    a = Tree(0, {0: [1, 2]})
    b = Tree(0, {0: [1, 2]})
    c = Tree(0, {0: [2, 1]})  # different child order
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
