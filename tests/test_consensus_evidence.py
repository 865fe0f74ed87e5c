"""Tests for double-vote evidence collection (Byzantine accountability)."""

import pytest

from repro import Cluster
from repro.consensus.byzantine import EquivocatingLeaderNode
from repro.consensus.evidence import (
    DoubleVoteEvidence,
    EvidenceLog,
    attach_evidence_log,
)
from repro.consensus.vote import Phase, vote_value
from repro.crypto.keys import Pki
from repro.crypto.signature import make_scheme


class TestEvidenceLogUnit:
    @pytest.fixture
    def setup(self):
        pki = Pki(n=7)
        return pki, make_scheme("bls", pki), EvidenceLog(pki)

    def test_single_votes_produce_no_evidence(self, setup):
        pki, scheme, log = setup
        value = vote_value(Phase.PREPARE, 0, 1, "block-a")
        coll = scheme.new(pki.keypair(0), value) | scheme.new(pki.keypair(1), value)
        assert log.observe_collection(coll) == []
        assert len(log) == 0

    def test_double_vote_detected(self, setup):
        pki, scheme, log = setup
        a = vote_value(Phase.PREPARE, 0, 1, "block-a")
        b = vote_value(Phase.PREPARE, 0, 1, "block-b")
        log.observe_collection(scheme.new(pki.keypair(3), a))
        new = log.observe_collection(scheme.new(pki.keypair(3), b))
        assert len(new) == 1
        item = new[0]
        assert item.signer == 3
        assert {item.block_a, item.block_b} == {"block-a", "block-b"}
        assert log.accused == {3}

    def test_distinct_slots_are_not_conflicts(self, setup):
        pki, scheme, log = setup
        log.observe_collection(
            scheme.new(pki.keypair(3), vote_value(Phase.PREPARE, 0, 1, "a"))
        )
        # different phase / height / view: all legitimate
        log.observe_collection(
            scheme.new(pki.keypair(3), vote_value(Phase.PRECOMMIT, 0, 1, "a"))
        )
        log.observe_collection(
            scheme.new(pki.keypair(3), vote_value(Phase.PREPARE, 0, 2, "b"))
        )
        log.observe_collection(
            scheme.new(pki.keypair(3), vote_value(Phase.PREPARE, 1, 1, "b"))
        )
        assert len(log) == 0

    def test_duplicate_evidence_reported_once(self, setup):
        pki, scheme, log = setup
        a = vote_value(Phase.PREPARE, 0, 1, "a")
        b = vote_value(Phase.PREPARE, 0, 1, "b")
        log.observe_collection(scheme.new(pki.keypair(3), a))
        log.observe_collection(scheme.new(pki.keypair(3), b))
        log.observe_collection(scheme.new(pki.keypair(3), b))
        log.observe_collection(scheme.new(pki.keypair(3), a))
        assert len(log) == 1

    def test_forged_votes_cannot_frame(self, setup):
        """Integrity: invalid signatures never become evidence."""
        pki, scheme, log = setup
        from repro.crypto.bls import BlsCollection

        a = vote_value(Phase.PREPARE, 0, 1, "a")
        b = vote_value(Phase.PREPARE, 0, 1, "b")
        log.observe_collection(scheme.new(pki.keypair(3), a))
        forged = BlsCollection(pki, scheme.costs, {b: {3: b"\x00" * 32}})
        log.observe_collection(forged)
        assert len(log) == 0


class TestEvidenceEndToEnd:
    def test_equivocating_leader_is_identified(self):
        """An equivocating root signs prepare votes for both of its twin
        blocks; the vote traffic convicts exactly that process."""
        probe = Cluster(n=13, mode="kauri", scenario="national")
        root = probe.policy.leader_of(0)
        cluster = Cluster(
            n=13,
            mode="kauri",
            scenario="national",
            byzantine={root: EquivocatingLeaderNode},
        )
        log = attach_evidence_log(cluster)
        cluster.start()
        cluster.run(duration=40.0)
        cluster.check_agreement()
        assert root in log.accused
        # no correct process is ever framed
        assert log.accused <= {root}

    def test_honest_run_produces_no_evidence(self):
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        log = attach_evidence_log(cluster)
        cluster.start()
        cluster.run(duration=10.0)
        cluster.check_agreement()
        assert len(log) == 0
