"""Unit tests for balanced-tree construction (§7.1 shapes)."""

import pytest

from repro.errors import TopologyError
from repro.topology.builder import build_star, build_tree, tree_level_sizes


class TestLevelSizes:
    @pytest.mark.parametrize(
        "n,height,expected",
        [
            (100, 2, [1, 10, 89]),
            (200, 2, [1, 14, 185]),
            (400, 2, [1, 20, 379]),
            (100, 3, [1, 5, 25, 69]),
            (7, 2, [1, 2, 4]),
        ],
    )
    def test_paper_shapes(self, n, height, expected):
        assert tree_level_sizes(n, height) == expected

    def test_star_levels(self):
        assert tree_level_sizes(100, 1) == [1, 99]

    def test_explicit_fanout(self):
        assert tree_level_sizes(100, 2, root_fanout=4) == [1, 4, 95]

    def test_too_small_system_rejected(self):
        with pytest.raises(TopologyError):
            tree_level_sizes(11, 2, root_fanout=10)  # interior needs 11 + leaves
        with pytest.raises(TopologyError):
            tree_level_sizes(1, 1)
        with pytest.raises(TopologyError):
            tree_level_sizes(10, 0)


class TestBuildTree:
    def test_n100_h2_matches_paper(self):
        """§7.1: N=100: root fanout 10, internal fanouts 8-9."""
        tree = build_tree(range(100), height=2)
        assert tree.fanout(tree.root) == 10
        internals = [node for node in tree.internal_nodes if node != tree.root]
        assert len(internals) == 10
        assert sorted({tree.fanout(node) for node in internals}) == [8, 9]
        assert tree.height == 2
        assert tree.n == 100

    def test_n200_h2_matches_paper(self):
        tree = build_tree(range(200), height=2)
        assert tree.fanout(tree.root) == 14
        fans = {tree.fanout(n) for n in tree.internal_nodes if n != tree.root}
        assert fans == {13, 14}

    def test_n400_h2_matches_paper(self):
        tree = build_tree(range(400), height=2)
        assert tree.fanout(tree.root) == 20
        fans = {tree.fanout(n) for n in tree.internal_nodes if n != tree.root}
        assert fans == {18, 19}

    def test_n100_h3_matches_paper(self):
        """§7.8: height 3 with fanout 5."""
        tree = build_tree(range(100), height=3)
        assert tree.height == 3
        assert tree.fanout(tree.root) == 5
        assert len(tree.internal_nodes) == 31  # 1 + 5 + 25

    def test_every_process_placed_once(self):
        tree = build_tree(range(100), height=2)
        assert tree.nodes == tuple(range(100))

    def test_internals_first_controls_placement(self):
        internals = [50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60]
        tree = build_tree(range(100), height=2, internals_first=internals)
        assert tree.root == 50
        assert set(tree.internal_nodes) == set(internals)

    def test_internals_first_too_short_rejected(self):
        with pytest.raises(TopologyError):
            build_tree(range(100), height=2, internals_first=[1, 2, 3])

    def test_internals_first_duplicates_rejected(self):
        with pytest.raises(TopologyError):
            build_tree(range(100), height=2, internals_first=[1] * 11)

    def test_internals_first_unknown_process_rejected(self):
        with pytest.raises(TopologyError):
            build_tree(range(100), height=2, internals_first=list(range(990, 1001)))

    def test_non_contiguous_process_ids(self):
        processes = [10, 20, 30, 40, 50, 60, 70]
        tree = build_tree(processes, height=2)
        assert set(tree.nodes) == set(processes)
        assert tree.root == 10


class TestBuildStar:
    def test_default_leader(self):
        star = build_star(range(5))
        assert star.root == 0
        assert star.children(0) == (1, 2, 3, 4)
        assert star.is_star

    def test_explicit_leader(self):
        star = build_star(range(5), leader=3)
        assert star.root == 3
        assert set(star.children(3)) == {0, 1, 2, 4}

    def test_unknown_leader_rejected(self):
        with pytest.raises(TopologyError):
            build_star(range(5), leader=99)

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            build_star([0])
