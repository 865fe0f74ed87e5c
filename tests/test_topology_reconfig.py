"""Unit + property tests for bins, evolving graphs, and reconfiguration
(paper §5, Algorithm 4, Theorem 3, §5.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import max_faults
from repro.errors import TopologyError
from repro.topology.bins import BinPartition
from repro.topology.evolving import (
    EvolvingGraph,
    first_robust_index,
    t_bounded_conformity,
)
from repro.topology.reconfig import ReconfigurationPolicy
from repro.topology.robustness import all_internals_correct, is_robust


class TestBinPartition:
    def test_bins_are_disjoint_and_sized(self):
        partition = BinPartition(range(100), internal_count=11)
        assert partition.num_bins == 9  # floor(100/11)
        assert partition.are_disjoint()
        assert all(len(b) == 11 for b in partition.bins)

    def test_round_robin_selection(self):
        partition = BinPartition(range(100), internal_count=11)
        assert partition.bin(0) == partition.bin(9)
        assert partition.bin(1) != partition.bin(0)

    def test_pigeonhole_clean_bin(self):
        """Theorem 3: with f < m faults, some bin is all-correct."""
        partition = BinPartition(range(100), internal_count=11)
        faulty = list(range(0, 88, 11))  # one per bin would need m faults
        assert len(faulty) == 8 < partition.num_bins
        assert partition.has_clean_bin(faulty)

    def test_explicit_num_bins(self):
        partition = BinPartition(range(100), internal_count=11, num_bins=4)
        assert partition.num_bins == 4

    def test_invalid_arguments(self):
        with pytest.raises(TopologyError):
            BinPartition(range(10), internal_count=11)  # can't fill one bin
        with pytest.raises(TopologyError):
            BinPartition(range(100), internal_count=11, num_bins=10)
        with pytest.raises(TopologyError):
            BinPartition(range(100), internal_count=0)
        with pytest.raises(TopologyError):
            BinPartition([1, 1, 2], internal_count=1)


class TestReconfigurationPolicy:
    def test_n100_defaults_match_paper(self):
        """N=100, h=2: 11 internals -> m=9 bins; §7.10 uses m=10 loosely."""
        policy = ReconfigurationPolicy(range(100), height=2)
        assert policy.internal_count == 11
        assert policy.num_bins == 9

    def test_tree_views_then_star_fallback(self):
        policy = ReconfigurationPolicy(range(100), height=2)
        m = policy.num_bins
        for view in range(m):
            assert policy.is_tree_view(view)
            assert policy.configuration(view).height == 2
        assert not policy.is_tree_view(m)
        assert policy.configuration(m).is_star

    def test_consecutive_trees_use_disjoint_internals(self):
        policy = ReconfigurationPolicy(range(100), height=2)
        internals0 = set(policy.configuration(0).internal_nodes)
        internals1 = set(policy.configuration(1).internal_nodes)
        assert internals0.isdisjoint(internals1)

    def test_star_fallback_rotates_leader(self):
        policy = ReconfigurationPolicy(range(100), height=2)
        m = policy.num_bins
        leaders = [policy.leader_of(m + k) for k in range(5)]
        assert leaders == [0, 1, 2, 3, 4]

    def test_deterministic_and_cached(self):
        policy = ReconfigurationPolicy(range(100), height=2)
        assert policy.configuration(3) is policy.configuration(3)
        other = ReconfigurationPolicy(range(100), height=2)
        assert policy.configuration(3) == other.configuration(3)

    def test_cycle_wraps(self):
        policy = ReconfigurationPolicy(range(100), height=2)
        assert policy.configuration(0) == policy.configuration(policy.cycle_length)

    def test_star_policy_rotates_every_view(self):
        policy = ReconfigurationPolicy.star_policy(range(7))
        assert [policy.leader_of(v) for v in range(8)] == [0, 1, 2, 3, 4, 5, 6, 0]
        assert all(policy.configuration(v).is_star for v in range(8))
        assert not policy.is_tree_view(0)

    def test_worst_case_reconfigurations(self):
        """§5.3: m + f + 1 for trees; f + 1 for stars."""
        policy = ReconfigurationPolicy(range(100), height=2)
        f = max_faults(100)
        assert policy.worst_case_reconfigurations(f) == policy.num_bins + f + 1
        star = ReconfigurationPolicy.star_policy(range(100))
        assert star.worst_case_reconfigurations(f) == f + 1

    def test_negative_view_rejected(self):
        policy = ReconfigurationPolicy(range(100), height=2)
        with pytest.raises(TopologyError):
            policy.configuration(-1)


class TestTheorem3:
    """Algorithm 4 yields m-Bounded Conformity for f < m (Theorem 3)."""

    def test_one_faulty_leader_recovers_next_view(self):
        policy = ReconfigurationPolicy(range(100), height=2)
        root0 = policy.leader_of(0)
        graph = EvolvingGraph(policy.configuration)
        assert first_robust_index(graph, {root0}, horizon=20) == 1

    def test_f_less_than_m_recovers_within_m_steps(self):
        policy = ReconfigurationPolicy(range(100), height=2)
        m = policy.num_bins
        # poison bins 0..m-2 with one faulty internal each (f = m-1 < m)
        faulty = {policy.configuration(k).internal_nodes[3] for k in range(m - 1)}
        graph = EvolvingGraph(policy.configuration)
        index = first_robust_index(graph, faulty, horizon=m + 1)
        assert index is not None and index <= m - 1

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 99), min_size=0, max_size=8))
    def test_t_bounded_conformity_random_faults(self, faulty):
        """Any f < m faults: a robust tree appears in every m-window."""
        policy = ReconfigurationPolicy(range(100), height=2)
        m = policy.num_bins
        if len(faulty) >= m:
            return
        graph = EvolvingGraph(policy.configuration)
        # Restrict to the tree phase of each cycle: check windows there.
        window = [is_robust(graph.at(v), faulty) for v in range(m)]
        assert any(window)

    def test_fallback_star_found_within_m_plus_f_plus_1(self):
        """§5.3 worst case: f >= m faults placed adversarially."""
        policy = ReconfigurationPolicy(range(100), height=2)
        m = policy.num_bins
        f = max_faults(100)
        # kill every tree (one internal per bin) and the first stars' leaders
        faulty = {policy.configuration(k).internal_nodes[0] for k in range(m)}
        star_leaders = [policy.leader_of(m + k) for k in range(f)]
        for leader in star_leaders:
            if len(faulty) >= f:
                break
            faulty.add(leader)
        graph = EvolvingGraph(policy.configuration)
        index = first_robust_index(graph, faulty, horizon=m + f + 2)
        assert index is not None
        assert index <= m + f  # i.e. at most m + f + 1 configurations tried

    def test_t_bounded_conformity_definition(self):
        policy = ReconfigurationPolicy(range(100), height=2)
        graph = EvolvingGraph(policy.configuration)
        faulty = {policy.leader_of(0)}
        m = policy.num_bins
        assert t_bounded_conformity(graph, t=m, faulty=faulty, horizon=3 * m)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=40, max_value=120),
    st.data(),
)
def test_property_bins_guarantee_robust_tree(n, data):
    """Randomized Theorem 3 check across system sizes."""
    policy = ReconfigurationPolicy(range(n), height=2)
    m = policy.num_bins
    f_cap = min(m - 1, max_faults(n))
    faulty = data.draw(
        st.sets(st.integers(0, n - 1), min_size=0, max_size=max(0, f_cap))
    )
    robust_found = any(
        all_internals_correct(policy.configuration(view), faulty)
        for view in range(m)
    )
    assert robust_found
