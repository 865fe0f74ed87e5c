"""Liveness-attack and fuzzing tests: starvation leaders, QC tampering,
and randomized crash schedules."""

import random

import pytest

from repro import Cluster
from repro.consensus.byzantine import QcTamperingNode, QcWithholdingLeaderNode


class TestQcWithholdingLeader:
    def test_starvation_leader_is_voted_out(self):
        """A leader that proposes but never releases QCs must not keep the
        system hostage: no QC progress -> pacemaker fires -> view change."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        root = cluster.policy.leader_of(0)
        attacked = Cluster(
            n=13,
            mode="kauri",
            scenario="national",
            byzantine={root: QcWithholdingLeaderNode},
        )
        attacked.start()
        attacked.run(duration=60.0)
        assert attacked.metrics.max_view >= 1
        assert attacked.metrics.committed_blocks > 0

    def test_withholding_replica_only_hurts_its_subtree(self):
        """The same behaviour in a non-root internal position drops QCs for
        its subtree; the rest of the system keeps committing."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        tree0 = cluster.policy.configuration(0)
        internal = next(n for n in tree0.internal_nodes if n != tree0.root)
        attacked = Cluster(
            n=13,
            mode="kauri",
            scenario="national",
            byzantine={internal: QcWithholdingLeaderNode},
        )
        attacked.start()
        attacked.run(duration=30.0)
        assert attacked.metrics.committed_blocks > 0


class TestQcTampering:
    def test_tampered_qcs_never_verify(self):
        """A forged QC binds signatures to the wrong value; descendants must
        reject it and safety must hold."""
        cluster = Cluster(n=13, mode="kauri", scenario="national")
        tree0 = cluster.policy.configuration(0)
        internal = next(n for n in tree0.internal_nodes if n != tree0.root)
        attacked = Cluster(
            n=13,
            mode="kauri",
            scenario="national",
            byzantine={internal: QcTamperingNode},
        )
        attacked.start()
        attacked.run(duration=60.0)
        assert attacked.metrics.committed_blocks > 0
        # no correct replica ever committed a forged hash
        for node in attacked.nodes:
            if node.node_id == internal:
                continue
            for block in node.store.committed_chain():
                assert not block.hash.startswith("forged-")


class TestCrashScheduleFuzz:
    """Randomized crash schedules must never violate agreement."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_crashes_preserve_agreement(self, seed):
        rng = random.Random(seed)
        n = 13
        f = 4
        cluster = Cluster(n=n, mode="kauri", scenario="national", seed=seed)
        victims = rng.sample(range(n), rng.randint(1, f))
        for victim in victims:
            cluster.crash_at(victim, rng.uniform(1.0, 20.0))
        cluster.start()
        cluster.run(duration=90.0)
        survivors = [x for x in cluster.nodes if x.node_id not in victims]
        assert max(node.committed_height for node in survivors) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_random_crashes_hotstuff(self, seed):
        rng = random.Random(100 + seed)
        cluster = Cluster(n=13, mode="hotstuff-bls", scenario="national", seed=seed)
        victims = rng.sample(range(13), rng.randint(1, 4))
        for victim in victims:
            cluster.crash_at(victim, rng.uniform(1.0, 10.0))
        cluster.start()
        cluster.run(duration=120.0)
        survivors = [x for x in cluster.nodes if x.node_id not in victims]
        assert max(node.committed_height for node in survivors) > 0

    def test_staggered_leader_crashes_during_recovery(self):
        """Crash the next leader shortly after each view change begins."""
        cluster = Cluster(n=13, mode="kauri", scenario="national", seed=5)
        cluster.crash_at(cluster.policy.leader_of(0), 5.0)
        cluster.crash_at(cluster.policy.leader_of(1), 7.0)
        cluster.start()
        cluster.run(duration=60.0)
        assert cluster.metrics.commit_gap_after(8.0) is not None
