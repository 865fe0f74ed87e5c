"""Unit tests for phases and quorum certificates."""

import pytest

from repro.consensus.vote import Phase, QuorumCert, genesis_qc, vote_value
from repro.crypto.keys import Pki
from repro.crypto.signature import make_scheme
from repro.errors import ConsensusError


@pytest.fixture
def setup():
    pki = Pki(n=7)
    scheme = make_scheme("bls", pki)
    return pki, scheme


def build_qc(pki, scheme, phase, view, height, block_hash, signers):
    value = vote_value(phase, view, height, block_hash)
    coll = scheme.empty()
    for node in signers:
        coll = coll | scheme.new(pki.keypair(node), value)
    return QuorumCert(phase, view, height, block_hash, coll)


class TestPhase:
    def test_four_rounds_plus_fast(self):
        # The four §3.1 rounds keep their historical values; the Kudzu
        # optimistic round slots in front so that FAST.next is PREPARE.
        assert [p.value for p in Phase] == [0, 1, 2, 3, 4]
        assert Phase.PREPARE.value == 1
        assert Phase.DECIDE.value == 4

    def test_aggregation_phases(self):
        """§3.1: rounds 1-3 collect votes; round 4 only disseminates.
        The Kudzu fast round aggregates too."""
        assert Phase.FAST.has_aggregation
        assert Phase.PREPARE.has_aggregation
        assert Phase.PRECOMMIT.has_aggregation
        assert Phase.COMMIT.has_aggregation
        assert not Phase.DECIDE.has_aggregation

    def test_next(self):
        assert Phase.FAST.next is Phase.PREPARE  # fallback order
        assert Phase.PREPARE.next is Phase.PRECOMMIT
        assert Phase.COMMIT.next is Phase.DECIDE
        with pytest.raises(ConsensusError):
            Phase.DECIDE.next


class TestVoteValue:
    def test_distinct_per_dimension(self):
        base = vote_value(Phase.PREPARE, 1, 2, "h")
        assert base != vote_value(Phase.PRECOMMIT, 1, 2, "h")
        assert base != vote_value(Phase.PREPARE, 2, 2, "h")
        assert base != vote_value(Phase.PREPARE, 1, 3, "h")
        assert base != vote_value(Phase.PREPARE, 1, 2, "g")
        assert base == vote_value(Phase.PREPARE, 1, 2, "h")


class TestQuorumCert:
    def test_valid_quorum_verifies(self, setup):
        pki, scheme = setup
        qc = build_qc(pki, scheme, Phase.PREPARE, 0, 1, "blk", range(5))
        assert qc.verify(5)  # n=7 -> f=2 -> quorum=5
        assert not qc.verify(6)
        assert qc.signers() == frozenset(range(5))

    def test_wrong_value_does_not_verify(self, setup):
        pki, scheme = setup
        qc = build_qc(pki, scheme, Phase.PREPARE, 0, 1, "blk", range(5))
        mismatched = QuorumCert(Phase.PRECOMMIT, 0, 1, "blk", qc.collection)
        assert not mismatched.verify(5)

    def test_genesis_qc_always_verifies(self):
        qc = genesis_qc()
        assert qc.is_genesis
        assert qc.verify(1000)
        assert qc.signers() == frozenset()
        assert qc.wire_size() == 16

    def test_newer_than_ordering(self, setup):
        pki, scheme = setup
        old = build_qc(pki, scheme, Phase.PREPARE, 1, 5, "a", range(5))
        higher_view = build_qc(pki, scheme, Phase.PREPARE, 2, 3, "b", range(5))
        higher_height = build_qc(pki, scheme, Phase.PREPARE, 1, 6, "c", range(5))
        assert higher_view.newer_than(old)
        assert higher_height.newer_than(old)
        assert not old.newer_than(old)
        assert old.newer_than(genesis_qc())

    def test_wire_size_constant_for_bls(self, setup):
        pki, scheme = setup
        small = build_qc(pki, scheme, Phase.PREPARE, 0, 1, "b", range(3))
        large = build_qc(pki, scheme, Phase.PREPARE, 0, 1, "b", range(7))
        assert small.wire_size() == large.wire_size()

    def test_wire_size_linear_for_secp(self):
        pki = Pki(n=7)
        scheme = make_scheme("secp", pki)
        small = build_qc(pki, scheme, Phase.PREPARE, 0, 1, "b", range(3))
        large = build_qc(pki, scheme, Phase.PREPARE, 0, 1, "b", range(7))
        assert large.wire_size() > small.wire_size()
