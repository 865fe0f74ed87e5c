"""Byzantine integration tests: safety must hold under arbitrary behaviour
by up to f processes (paper §2 fault model)."""

import pytest

from repro import Cluster
from repro.consensus.byzantine import (
    EquivocatingLeaderNode,
    SilentNode,
    VoteForgingNode,
    VoteWithholdingNode,
)


def run_byzantine(byzantine, n=13, mode="kauri", duration=40.0, seed=0, **kwargs):
    cluster = Cluster(
        n=n,
        mode=mode,
        scenario="national",
        seed=seed,
        byzantine=byzantine,
        **kwargs,
    )
    cluster.start()
    cluster.run(duration=duration)
    return cluster


class TestEquivocatingLeader:
    def test_no_conflicting_commits(self):
        """The root proposes different blocks per subtree; vote-once keeps
        conflicting quorums from forming, and reconfiguration restores
        liveness."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        leader0 = cluster.policy.leader_of(0)
        cluster2 = run_byzantine({leader0: EquivocatingLeaderNode})
        assert cluster2.metrics.max_view >= 1  # the equivocator was evicted
        assert cluster2.metrics.committed_blocks > 0

    def test_equivocating_hotstuff_leader(self):
        cluster = run_byzantine({0: EquivocatingLeaderNode}, mode="hotstuff-bls")
        assert cluster.metrics.committed_blocks > 0

    def test_equivocating_non_leader_is_harmless(self):
        """An equivocator that never becomes root behaves like an honest
        replica (the hook only fires at the root)."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        leaf = cluster.policy.configuration(0).leaves[0]
        result = run_byzantine({leaf: EquivocatingLeaderNode}, duration=15.0)
        assert result.metrics.committed_blocks > 0


class TestVoteWithholding:
    def test_withholding_internal_node_stalls_then_recovers(self):
        """An internal node that forwards but never relays votes denies the
        root its subtree's signatures; Δ bounds the damage per round and
        the pacemaker eventually rotates it out (§5)."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        tree0 = cluster.policy.configuration(0)
        internal = next(n for n in tree0.internal_nodes if n != tree0.root)
        result = run_byzantine({internal: VoteWithholdingNode}, duration=60.0)
        assert result.metrics.committed_blocks > 0

    def test_withholding_leaf_is_tolerated_in_place(self):
        """A leaf withholding its vote costs one signature: quorum still
        reached without reconfiguration."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        leaf = cluster.policy.configuration(0).leaves[0]
        result = run_byzantine({leaf: VoteWithholdingNode}, duration=15.0)
        assert result.metrics.committed_blocks > 0
        assert result.metrics.max_view == 0


class TestVoteForging:
    @pytest.mark.parametrize("mode", ["kauri", "hotstuff-secp"])
    def test_forged_votes_never_enter_quorums(self, mode):
        """Integrity (§3.3.2): fabricated signatures for other processes
        must not count. The run must stay safe and the forged signers must
        not appear in any commit quorum implicitly (agreement would break
        if forged quorums certified conflicting blocks)."""
        cluster = Cluster(n=13, mode=mode, scenario="national")
        tree0 = cluster.policy.configuration(0)
        forger = tree0.leaves[0]
        result = run_byzantine({forger: VoteForgingNode}, mode=mode, duration=20.0)
        assert result.metrics.committed_blocks > 0

    def test_forging_internal_node(self):
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        tree0 = cluster.policy.configuration(0)
        internal = next(n for n in tree0.internal_nodes if n != tree0.root)
        result = run_byzantine({internal: VoteForgingNode}, duration=40.0)
        assert result.metrics.committed_blocks > 0


class TestByzantineRootIsNeverTheFirstCommitter:
    @pytest.mark.parametrize("behaviour", [VoteForgingNode, VoteWithholdingNode])
    def test_records_name_correct_committers(self, behaviour):
        """Throughput and latency count the first *correct* replica to
        commit a height; a Byzantine root commits first but never counts."""
        root = Cluster(n=13, mode="kauri", scenario="national").policy.leader_of(0)
        result = run_byzantine({root: behaviour}, duration=15.0)
        records = result.metrics.records()
        assert records
        assert all(record.first_committer != root for record in records)


class TestSilentNodes:
    def test_f_silent_nodes_tolerated(self):
        """n=13 tolerates f=4 silent processes placed as leaves."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        leaves = cluster.policy.configuration(0).leaves[:4]
        result = run_byzantine({leaf: SilentNode for leaf in leaves}, duration=20.0)
        assert result.metrics.committed_blocks > 0

    def test_silent_root_triggers_view_change(self):
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        root = cluster.policy.leader_of(0)
        result = run_byzantine({root: SilentNode}, duration=40.0)
        assert result.metrics.max_view >= 1
        assert result.metrics.committed_blocks > 0


class TestMixedAdversary:
    def test_combined_attack_stays_safe_and_live(self):
        """f=4 Byzantine processes with mixed behaviours: agreement must
        hold and the correct majority must keep committing."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        tree0 = cluster.policy.configuration(0)
        root = tree0.root
        internal = next(n for n in tree0.internal_nodes if n != root)
        leaves = [l for l in tree0.leaves if l != root][:2]
        byz = {
            root: EquivocatingLeaderNode,
            internal: VoteWithholdingNode,
            leaves[0]: VoteForgingNode,
            leaves[1]: SilentNode,
        }
        result = run_byzantine(byz, duration=120.0)
        assert result.metrics.committed_blocks > 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_randomized_byzantine_placement_preserves_agreement(self, seed):
        """Randomly place f Byzantine nodes with random behaviours; safety
        must hold for every seed."""
        import random

        rng = random.Random(seed)
        behaviours = [
            EquivocatingLeaderNode,
            VoteWithholdingNode,
            VoteForgingNode,
            SilentNode,
        ]
        victims = rng.sample(range(13), 4)
        byz = {v: rng.choice(behaviours) for v in victims}
        result = run_byzantine(byz, duration=60.0, seed=seed)
        correct = [
            node
            for node in result.nodes
            if node.node_id not in byz
        ]
        # agreement is checked at every commit; correct nodes made progress
        assert max(node.committed_height for node in correct) > 0
