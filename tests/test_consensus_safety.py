"""Unit tests for the replica safety rules (vote-once, locking, safeNode)."""

import pytest

import repro.core.smr
from repro import Cluster
from repro.consensus.block import Block, BlockStore, GENESIS_HASH
from repro.consensus.safety import SafetyRules
from repro.consensus.vote import Phase, QuorumCert, genesis_qc, vote_value
from repro.consensus.byzantine import (
    EquivocatingLeaderNode,
    QcTamperingNode,
    QcWithholdingLeaderNode,
    SilentNode,
    VoteForgingNode,
    VoteWithholdingNode,
)
from repro.crypto.keys import Pki
from repro.crypto.signature import make_scheme

PKI = Pki(n=7)
SCHEME = make_scheme("bls", PKI)
QUORUM = 5


def qc(phase, view, height, block_hash, signers=range(QUORUM)):
    value = vote_value(phase, view, height, block_hash)
    coll = SCHEME.empty()
    for node in signers:
        coll = coll | SCHEME.new(PKI.keypair(node), value)
    return QuorumCert(phase, view, height, block_hash, coll)


def make_chain(store, length, view=0, parent=GENESIS_HASH, start=1, salt=0):
    blocks, current = [], parent
    for offset in range(length):
        block = Block.create(start + offset, view, current, 0, 100, 1, 0.0, salt=salt)
        store.add(block)
        blocks.append(block)
        current = block.hash
    return blocks


@pytest.fixture
def rules():
    return SafetyRules(BlockStore())


class TestVoteOnce:
    def test_single_vote_per_slot(self, rules):
        assert rules.may_vote(0, 1, Phase.PREPARE)
        rules.record_vote(0, 1, Phase.PREPARE)
        assert not rules.may_vote(0, 1, Phase.PREPARE)

    def test_slots_independent(self, rules):
        rules.record_vote(0, 1, Phase.PREPARE)
        assert rules.may_vote(0, 1, Phase.PRECOMMIT)
        assert rules.may_vote(0, 2, Phase.PREPARE)
        assert rules.may_vote(1, 1, Phase.PREPARE)


def vote_records(rules):
    """Recorded (view, height, phase) triples: one bit each."""
    return sum(phases.bit_count() for phases in rules._voted.values())


def voted_heights(rules):
    return sorted({height for height, _view in rules._voted})


class TestVotePruning:
    def test_committed_heights_are_dropped_at_the_next_vote(self, rules):
        blocks = make_chain(rules.store, 3)
        for height in (1, 2, 3):
            for phase in (Phase.PREPARE, Phase.PRECOMMIT, Phase.COMMIT):
                rules.record_vote(0, height, phase)
        rules.store.commit(blocks[1])  # heights 1 and 2
        assert voted_heights(rules) == [1, 2, 3]  # nothing happens at commit
        rules.record_vote(0, 4, Phase.PREPARE)
        assert voted_heights(rules) == [3, 4]
        assert vote_records(rules) == 4
        assert not rules.may_vote(0, 3, Phase.COMMIT)
        assert not rules.may_vote(0, 4, Phase.PREPARE)
        assert rules.may_vote(1, 4, Phase.PREPARE)

    def test_a_vote_at_a_committed_height_is_kept_until_the_next(self, rules):
        """A lagging instance may vote at a height its replica has already
        committed: that record holds until the next vote is recorded."""
        rules.store.commit(make_chain(rules.store, 2)[-1])
        rules.record_vote(0, 2, Phase.COMMIT)
        assert not rules.may_vote(0, 2, Phase.COMMIT)
        rules.record_vote(0, 3, Phase.PREPARE)
        assert voted_heights(rules) == [3]


class CheckedSafetyRules(SafetyRules):
    """``SafetyRules`` that keeps the unpruned vote-once set beside the
    pruned one and logs every query on which the two disagree."""

    queries = 0
    records = 0
    disagreements = []

    def __init__(self, store):
        super().__init__(store)
        self.unpruned = set()

    def may_vote(self, view, height, phase):
        answer = super().may_vote(view, height, phase)
        CheckedSafetyRules.queries += 1
        if answer != ((view, height, phase) not in self.unpruned):
            CheckedSafetyRules.disagreements.append((view, height, phase, answer))
        return answer

    def record_vote(self, view, height, phase):
        super().record_vote(view, height, phase)
        CheckedSafetyRules.records += 1
        self.unpruned.add((view, height, phase))


def _root(n):
    return Cluster(n=n, mode="kauri", scenario="national").policy.leader_of(0)


def _internal(n):
    tree0 = Cluster(n=n, mode="kauri", scenario="national").policy.configuration(0)
    return next(node for node in tree0.internal_nodes if node != tree0.root)


#: run -> (Cluster kwargs, duration, whether the run must change view).
PRUNING_RUNS = {
    "kauri": lambda: (dict(n=31, mode="kauri"), 20.0, False),
    "hotstuff-bls": lambda: (dict(n=31, mode="hotstuff-bls"), 20.0, False),
    "kudzu": lambda: (dict(n=31, mode="kudzu"), 20.0, False),
    "crash-leader": lambda: (dict(n=31, mode="kauri", crashes=((_root(31), 2.0),)), 40.0, True),
    "equivocating-leader": lambda: (
        dict(n=13, mode="kauri", byzantine={_root(13): EquivocatingLeaderNode}), 40.0, True
    ),
    "silent-leader": lambda: (
        dict(n=13, mode="kauri", byzantine={_root(13): SilentNode}), 40.0, True
    ),
    "qc-withholding-leader": lambda: (
        dict(n=13, mode="kauri", byzantine={_root(13): QcWithholdingLeaderNode}), 40.0, True
    ),
    "vote-withholding": lambda: (
        dict(n=13, mode="kauri", byzantine={_internal(13): VoteWithholdingNode}), 40.0, False
    ),
    "vote-forging": lambda: (
        dict(n=13, mode="kauri", byzantine={_internal(13): VoteForgingNode}), 20.0, False
    ),
    "qc-tampering": lambda: (
        dict(n=13, mode="kauri", byzantine={_internal(13): QcTamperingNode}), 40.0, False
    ),
}


class TestPruningIsExact:
    """Pruning at commit changes no answer ``may_vote`` is asked, fault-free,
    across a view change and under every behaviour in
    ``consensus/byzantine.py``."""

    @pytest.mark.parametrize("run", sorted(PRUNING_RUNS))
    def test_may_vote_agrees_with_the_unpruned_set(self, run, monkeypatch):
        monkeypatch.setattr(repro.core.smr, "SafetyRules", CheckedSafetyRules)
        monkeypatch.setattr(CheckedSafetyRules, "queries", 0)
        monkeypatch.setattr(CheckedSafetyRules, "records", 0)
        monkeypatch.setattr(CheckedSafetyRules, "disagreements", [])
        kwargs, duration, changes_view = PRUNING_RUNS[run]()
        cluster = Cluster(scenario="national", seed=0, **kwargs)
        cluster.start()
        cluster.run(duration=duration, max_commits=None if changes_view else 40)
        cluster.check_agreement()
        assert cluster.metrics.committed_blocks > 0
        if changes_view:
            assert cluster.metrics.max_view >= 1
        assert CheckedSafetyRules.disagreements == []
        assert CheckedSafetyRules.queries >= CheckedSafetyRules.records > 0
        kept = sum(vote_records(node.safety) for node in cluster.nodes)
        assert kept < CheckedSafetyRules.records  # something was pruned


def test_vote_once_state_is_bounded_by_the_pipeline():
    """After 40 commits each replica holds at most three records per
    instance its leader may keep in flight, not three per height run."""
    cluster = Cluster(n=31, mode="kauri", scenario="global", seed=0)
    cluster.start()
    cluster.run(duration=120.0, max_commits=40)
    assert cluster.metrics.committed_blocks >= 40
    for node in cluster.nodes:
        cap = node._inflight_cap(node._effective_stretch())
        assert vote_records(node.safety) <= 3 * cap, node.node_id


class TestSafeProposal:
    def test_first_block_on_genesis(self, rules):
        block = Block.create(1, 0, GENESIS_HASH, 0, 100, 1, 0.0)
        assert rules.safe_proposal(block, genesis_qc())

    def test_height_must_exceed_justify(self, rules):
        block = Block.create(0, 0, GENESIS_HASH, 0, 100, 1, 0.0)
        assert not rules.safe_proposal(block, genesis_qc())

    def test_must_extend_justify_block(self, rules):
        blocks = make_chain(rules.store, 2)
        justify = qc(Phase.PREPARE, 0, 1, blocks[0].hash)
        ok = Block.create(3, 0, blocks[1].hash, 0, 100, 1, 0.0)
        rules.store.add(ok)
        assert rules.safe_proposal(ok, justify)
        stranger = Block.create(3, 0, "unrelated", 0, 100, 1, 0.0)
        assert not rules.safe_proposal(stranger, justify)

    def test_pipelined_justify_several_heights_back(self, rules):
        """§4.2: the justify may lag the proposal by several heights."""
        blocks = make_chain(rules.store, 5)
        justify = qc(Phase.PREPARE, 0, 1, blocks[0].hash)
        tip = Block.create(6, 0, blocks[4].hash, 0, 100, 1, 0.0)
        rules.store.add(tip)
        assert rules.safe_proposal(tip, justify)

    def test_locked_blocks_conflicting_branch(self, rules):
        blocks = make_chain(rules.store, 2, view=1)
        # lock on blocks[1] in view 1
        rules.observe_precommit_qc(qc(Phase.PRECOMMIT, 1, 2, blocks[1].hash))
        # same-view fork not extending the lock: rejected
        fork = Block.create(3, 1, blocks[0].hash, 0, 100, 1, 0.0, salt=9)
        rules.store.add(fork)
        justify_old = qc(Phase.PREPARE, 1, 1, blocks[0].hash)
        assert not rules.safe_proposal(fork, justify_old)
        # extension of the lock: accepted
        extend = Block.create(3, 1, blocks[1].hash, 0, 100, 1, 0.0)
        rules.store.add(extend)
        justify_lock = qc(Phase.PREPARE, 1, 2, blocks[1].hash)
        assert rules.safe_proposal(extend, justify_lock)

    def test_newer_view_justify_overrides_lock(self, rules):
        """The HotStuff liveness rule: a strictly newer justify unlocks."""
        blocks = make_chain(rules.store, 2, view=1)
        rules.observe_precommit_qc(qc(Phase.PRECOMMIT, 1, 2, blocks[1].hash))
        other = Block.create(2, 3, blocks[0].hash, 1, 100, 1, 0.0, salt=4)
        rules.store.add(other)
        tip = Block.create(3, 3, other.hash, 1, 100, 1, 0.0)
        rules.store.add(tip)
        justify_newer = qc(Phase.PREPARE, 3, 2, other.hash)
        assert rules.safe_proposal(tip, justify_newer)
        justify_same_view = qc(Phase.PREPARE, 1, 2, other.hash)
        assert not rules.safe_proposal(tip, justify_same_view)


class TestQcObservation:
    def test_high_prepare_tracks_newest(self, rules):
        a = qc(Phase.PREPARE, 1, 1, "a")
        b = qc(Phase.PREPARE, 2, 1, "b")
        rules.observe_qc(b)
        rules.observe_qc(a)  # older: ignored
        assert rules.high_prepare_qc == b

    def test_lock_tracks_newest_precommit(self, rules):
        a = qc(Phase.PRECOMMIT, 1, 1, "a")
        b = qc(Phase.PRECOMMIT, 3, 1, "b")
        rules.observe_qc(a)
        assert rules.locked_block_hash == "a"
        rules.observe_qc(b)
        assert rules.locked_block_hash == "b"
        rules.observe_qc(a)
        assert rules.locked_block_hash == "b"

    def test_commit_qc_does_not_touch_lock(self, rules):
        rules.observe_qc(qc(Phase.COMMIT, 5, 9, "c"))
        assert rules.locked_qc.is_genesis
        assert rules.high_prepare_qc.is_genesis

    def test_prepare_does_not_lock(self, rules):
        rules.observe_qc(qc(Phase.PREPARE, 5, 9, "p"))
        assert rules.locked_qc.is_genesis
        assert rules.high_prepare_qc.block_hash == "p"
