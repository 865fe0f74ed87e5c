"""Tests for the PBFT baseline (clique, all-to-all, §1 / Table 1)."""

import pytest

from repro import Cluster
from repro.consensus.block import GENESIS_HASH, Block
from repro.consensus.tags import prop_tag
from repro.core.modes import mode_spec
from repro.core.perfmodel import PROPOSAL_OVERHEAD


def run_pbft(n=7, duration=10.0, seed=0, crashes=(), scenario="national"):
    cluster = Cluster(n=n, mode="pbft", scenario=scenario, seed=seed, crashes=crashes)
    cluster.start()
    cluster.run(duration=duration)
    return cluster


class TestPbftBasics:
    def test_mode_registered(self):
        spec = mode_spec("pbft")
        assert spec.topology == "clique"
        assert spec.scheme == "secp"

    def test_commits_and_agreement(self):
        cluster = run_pbft()
        assert cluster.metrics.committed_blocks > 0
        assert cluster.metrics.max_view == 0

    def test_commit_heights_contiguous(self):
        cluster = run_pbft()
        records = cluster.metrics.records()
        assert [r.height for r in records] == list(range(1, len(records) + 1))

    def test_deterministic(self):
        a = run_pbft(seed=5)
        b = run_pbft(seed=5)
        assert [r.block_hash for r in a.metrics.records()] == [
            r.block_hash for r in b.metrics.records()
        ]

    def test_every_replica_commits_same_chain(self):
        cluster = run_pbft(n=10)
        assert min(node.committed_height for node in cluster.nodes) > 0
        cluster.check_agreement()


class TestPbftWiring:
    def test_nodes_share_the_deployment_config(self):
        cluster = Cluster(n=7, mode="pbft", scenario="national")
        assert all(node.shared is cluster.shared for node in cluster.nodes)
        assert cluster.shared.protocol is None  # no SmrNode strategy
        assert cluster.nodes[0].quorum == cluster.shared.quorum == 5

    def test_smr_node_factory_in_a_pbft_deployment_is_refused(self):
        from repro.consensus.byzantine import SilentNode
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="standalone node class"):
            Cluster(n=7, mode="pbft", scenario="national", byzantine={1: SilentNode})


class TestPbftComplexity:
    def test_quadratic_message_complexity(self):
        """§1: PBFT's all-to-all pattern is O(n²) per instance; HotStuff's
        star is O(n)."""

        def msgs_per_block(mode, n):
            cluster = Cluster(n=n, mode=mode, scenario="national")
            cluster.start()
            cluster.run(duration=8.0, max_commits=40)
            return cluster.network.messages_sent / max(
                1, cluster.metrics.committed_blocks
            )

        pbft_small, pbft_large = msgs_per_block("pbft", 7), msgs_per_block("pbft", 16)
        hs_small, hs_large = (
            msgs_per_block("hotstuff-secp", 7),
            msgs_per_block("hotstuff-secp", 16),
        )
        scale = 16 / 7
        # PBFT grows super-linearly (towards quadratic), HotStuff linearly
        assert pbft_large / pbft_small > 1.5 * scale
        assert hs_large / hs_small < 1.5 * scale

    def test_pbft_fast_at_small_n_slow_at_scale(self):
        """The motivation for trees: all-to-all collapses as n grows while
        the per-link budget stays fixed."""

        def tput(mode, n, scenario):
            cluster = Cluster(n=n, mode=mode, scenario=scenario)
            cluster.start()
            cluster.run(duration=60.0, max_commits=40)
            return cluster.metrics.throughput_txs(start=cluster.sim.now * 0.25)

        # §1: "can offer high throughput in small sized systems": one round
        # trip and ample bandwidth let the clique win at n=7 ...
        assert tput("pbft", 7, "national") > tput("kauri", 7, "national")
        # ... but all-to-all collapses as n grows (quadratic traffic), and
        # in bandwidth-constrained settings trees win at every tested size
        assert tput("kauri", 31, "national") > tput("pbft", 31, "national")
        assert tput("kauri", 16, "regional") > tput("pbft", 16, "regional")


class TestPbftFaults:
    def test_crashed_primary_rotates(self):
        cluster = Cluster(n=7, mode="pbft", scenario="national", seed=3)
        cluster.crash_at(cluster.policy.leader_of(0), 3.0)
        cluster.start()
        cluster.run(duration=30.0)
        assert cluster.metrics.max_view == 1
        assert cluster.metrics.commit_gap_after(3.0) is not None

    def test_two_consecutive_crashed_primaries(self):
        cluster = Cluster(n=13, mode="pbft", scenario="national", seed=4)
        for view in range(2):
            cluster.crash_at(cluster.policy.leader_of(view), 3.0)
        cluster.start()
        cluster.run(duration=60.0)
        assert cluster.metrics.max_view == 2
        assert cluster.metrics.commit_gap_after(3.0) is not None

    def test_f_crashed_replicas_tolerated(self):
        cluster = Cluster(n=7, mode="pbft", scenario="national", seed=6)
        primary = cluster.policy.leader_of(0)
        victims = [p for p in range(7) if p != primary][:2]
        for victim in victims:
            cluster.crash_at(victim, 2.0)
        cluster.start()
        cluster.run(duration=20.0)
        assert cluster.metrics.commit_gap_after(2.5) is not None
        assert cluster.metrics.max_view == 0  # quorum intact, no rotation

    @pytest.mark.parametrize("seed", range(4))
    def test_random_crash_schedules_preserve_agreement(self, seed):
        import random

        rng = random.Random(seed)
        cluster = Cluster(n=10, mode="pbft", scenario="national", seed=seed)
        victims = rng.sample(range(10), rng.randint(1, 3))
        for victim in victims:
            cluster.crash_at(victim, rng.uniform(1.0, 8.0))
        cluster.start()
        cluster.run(duration=60.0)
        survivors = [x for x in cluster.nodes if x.node_id not in victims]
        assert max(node.committed_height for node in survivors) > 0


def test_preprepare_from_a_non_primary_is_ignored():
    """A replica that is not the view's primary sends every other
    replica a well-formed pre-prepare for height 1 on the view's
    pre-prepare tag, before the primary's own arrives: replicas take
    pre-prepares from the primary only, so none stores the forgery and
    the chain committed is the primary's."""
    cluster = Cluster(n=7, mode="pbft", scenario="national")
    primary = cluster.policy.leader_of(0)
    forger = (primary + 1) % cluster.n
    forged = Block.create(
        height=1, view=0, parent=GENESIS_HASH, proposer=primary,
        payload_size=1000, num_txs=4, created_at=0.0, salt=999,
    )
    cluster.start()
    for peer in range(cluster.n):
        if peer != forger:
            cluster.network.send(
                forger, peer, prop_tag(0), (forged, None),
                forged.payload_size + PROPOSAL_OVERHEAD,
            )
    cluster.run(duration=10.0)
    records = cluster.metrics.records()
    assert records and records[0].height == 1
    assert forged.hash not in {record.block_hash for record in records}
    assert not any(forged.hash in node.store for node in cluster.nodes)
    cluster.check_agreement()
