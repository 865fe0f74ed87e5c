"""Mechanism-level tests of SmrNode internals."""

import re

import pytest

from repro import Cluster, ProtocolConfig
from repro.consensus.block import Block, GENESIS_HASH
from repro.consensus.vote import Phase, QuorumCert, genesis_qc
from repro.consensus.tags import is_stale_tag
from repro.core.smr import SmrNode
from repro.crypto.collection import Collection
from repro.errors import SimulationError
from repro.sim.process import MailboxWait, spawn
from tests.test_wait_requests import _fingerprint


@pytest.fixture
def cluster():
    return Cluster(n=7, mode="kauri", scenario="national")


class TestStaleTagPredicate:
    def test_protocol_tags_of_older_views_are_stale(self):
        assert is_stale_tag(("prop", 1), view=2)
        assert is_stale_tag(("vote", 0, 5, "PREPARE"), view=1)
        assert is_stale_tag(("qc", 1, 5, "COMMIT"), view=2)
        assert is_stale_tag(("newview", 1), view=2)

    def test_current_and_future_views_kept(self):
        assert not is_stale_tag(("prop", 2), view=2)
        assert not is_stale_tag(("newview", 3), view=2)

    def test_foreign_tags_kept(self):
        assert not is_stale_tag("random", view=5)
        assert not is_stale_tag(("other", 0), view=5)
        assert not is_stale_tag(("prop", "x"), view=5)


class TestParseProposal:
    def test_valid_payload(self, cluster):
        node = cluster.nodes[1]
        block = Block.create(1, 0, GENESIS_HASH, 0, 10, 1, 0.0)
        parsed = SmrNode._parse_proposal((block, genesis_qc(), None))
        assert parsed == (block, genesis_qc(), None)

    def test_garbage_payloads_rejected(self):
        block = Block.create(1, 0, GENESIS_HASH, 0, 10, 1, 0.0)
        assert SmrNode._parse_proposal("junk") is None
        assert SmrNode._parse_proposal((block,)) is None
        assert SmrNode._parse_proposal((block, "not-a-qc", None)) is None
        assert SmrNode._parse_proposal(("not-a-block", genesis_qc(), None)) is None
        assert SmrNode._parse_proposal((block, genesis_qc(), "junk")) is None


class TestPendingCommits:
    def test_orphan_commit_buffers_until_chain_known(self, cluster):
        node = cluster.nodes[0]
        node.start()
        parent = Block.create(1, 0, GENESIS_HASH, 0, 10, 1, 0.0, salt=1)
        child = Block.create(2, 0, parent.hash, 0, 10, 1, 0.0, salt=2)
        node.store.add(child)  # parent unknown: chain incomplete
        node._commit(child)
        assert node.committed_height == 0
        assert child in node._pending_commits
        node.store.add(parent)
        node._commit(parent)  # commits parent, then drains the buffer
        assert node.committed_height == 2

    def test_commit_idempotent(self, cluster):
        node = cluster.nodes[0]
        node.start()
        block = Block.create(1, 0, GENESIS_HASH, 0, 10, 1, 0.0)
        node.store.add(block)
        node._commit(block)
        node._commit(block)
        assert node.committed_height == 1
        assert cluster.metrics.commits_per_node[0] == 1


class TestLeaderPacing:
    def make_node(self, mode, stretch=None):
        config = ProtocolConfig(stretch=stretch)
        cluster = Cluster(n=7, mode=mode, scenario="national", config=config)
        return cluster, cluster.nodes[cluster.policy.leader_of(0)]

    def test_effective_stretch_by_mode(self):
        _, kauri = self.make_node("kauri", stretch=5.0)
        kauri.start()
        assert kauri.protocol.effective_stretch(kauri) == 5.0
        _, kauri_np = self.make_node("kauri-np")
        kauri_np.start()
        assert kauri_np.protocol.effective_stretch(kauri_np) == 0.0
        _, hotstuff = self.make_node("hotstuff-bls")
        hotstuff.start()
        assert hotstuff.protocol.effective_stretch(hotstuff) == 3.0  # depth 4 = 1 + 3

    def test_model_stretch_when_unset(self):
        cluster, node = self.make_node("kauri")
        node.start()
        assert node.protocol.effective_stretch(node) == pytest.approx(
            node.model.pipelining_stretch
        )

    def test_inflight_caps(self):
        _, kauri = self.make_node("kauri", stretch=5.0)
        kauri.start()
        assert kauri.protocol.inflight_cap(kauri, 5.0) == 24  # 4 * (1 + 5)
        _, np_node = self.make_node("kauri-np")
        np_node.start()
        assert np_node.protocol.inflight_cap(np_node, 0.0) == 1
        _, hs = self.make_node("hotstuff-bls")
        hs.start()
        assert hs.protocol.inflight_cap(hs, 3.0) == 4

    def test_sequential_mode_never_overlaps_instances(self):
        cluster = Cluster(n=7, mode="kauri-np", scenario="national")
        cluster.start()
        cluster.run(duration=5.0)
        leader = cluster.nodes[cluster.policy.leader_of(0)]
        assert len(leader._inflight) <= 1


class TestViewEntry:
    def test_enter_view_rebuilds_comm_and_model(self, cluster):
        node = cluster.nodes[0]
        node.start()
        tree0_comm = node.comm
        node._enter_view(1)
        assert node.view == 1
        assert node.comm is not tree0_comm
        assert node.tree == cluster.policy.configuration(1)

    def test_stopped_node_ignores_view_entry(self, cluster):
        node = cluster.nodes[0]
        node.start()
        node.stop()
        view_before = node.view
        node._enter_view(5)
        assert node.view == view_before

    def test_stop_is_idempotent(self, cluster):
        node = cluster.nodes[0]
        node.start()
        node.stop()
        node.stop()
        assert node.stopped

    def test_timeout_sends_newview_to_next_leader(self, cluster):
        cluster.start()
        cluster.sim.run(until=0.5)
        node = cluster.nodes[3]
        sent_before = cluster.network.messages_sent
        node._on_timeout()
        assert node.view == 1
        # a new-view message was sent toward leader_of(1)
        assert cluster.network.messages_sent > sent_before


class TestNewViewQuorum:
    def test_quorum_is_2f_plus_1(self):
        for n, expected in ((7, 5), (13, 9), (100, 67)):
            cluster = Cluster(n=n, mode="kauri", scenario="national")
            assert cluster.nodes[0].newview_quorum == expected


class TestViewTasks:
    """A decided instance's task leaves ``_view_tasks`` when it finishes;
    what is left is live and in spawn order (cancellation order)."""

    @staticmethod
    def assert_only_live_tasks(cluster):
        for node in cluster.nodes:
            tasks = list(node._view_tasks.values())
            assert all(not task.done for task in tasks), node
            if not node.stopped:
                # The view's main task (leader loop or proposal pump) first,
                # then the undecided instances in the order they started.
                assert "-inst-" not in tasks[0].name
                assert all("-inst-" in task.name for task in tasks[1:])

    def test_fault_free_run_keeps_no_finished_instance(self):
        cluster = Cluster(n=31, mode="kauri", scenario="global", seed=0)
        cluster.start()
        cluster.run(duration=120.0, max_commits=12)
        assert cluster.metrics.committed_blocks == 12
        self.assert_only_live_tasks(cluster)
        leader = cluster.nodes[cluster.policy.leader_of(0)]
        assert len(leader._view_tasks) == 1 + len(leader._inflight)

    def test_view_change_keeps_only_the_new_views_live_tasks(self):
        cluster = Cluster(n=31, mode="kauri", scenario="global", seed=0)
        crashed = cluster.policy.leader_of(0)
        cluster.crash_at(crashed, 10.0)
        cluster.start()
        cluster.run(duration=30.0)
        live = [node for node in cluster.nodes if node.node_id != crashed]
        assert {node.view for node in live} == {1}
        assert not cluster.nodes[crashed]._view_tasks
        self.assert_only_live_tasks(cluster)


class TestInstanceFrames:
    """DESIGN.md, "Frames per resume": an instance parked on its parent's
    QC -- where pipelining keeps most of them -- is one generator frame,
    and the leader keeps a pacing signal only for an instance in flight."""

    @staticmethod
    def _parked_on_parents_qc(mode):
        """A run at n=31 and its non-root instances parked on a QC."""
        cluster = Cluster(n=31, mode=mode, scenario="global", seed=0)
        cluster.start()
        cluster.run(duration=120.0, max_commits=12)
        parked = [
            (node, task)
            for node in cluster.nodes
            if node.node_id != cluster.policy.leader_of(0)
            for height, task in node._view_tasks.items()
            if height is not None
            and type(task._pending_wait) is MailboxWait
            and task._pending_wait.tag[0] == "qc"
        ]
        assert parked
        return cluster, parked

    @pytest.mark.parametrize("mode", ["kauri", "hotstuff-bls", "kudzu"])
    def test_instance_parked_on_its_parents_qc_is_one_frame(self, mode):
        _, parked = self._parked_on_parents_qc(mode)
        assert all(task._gen.gi_yieldfrom is None for _, task in parked)

    @pytest.mark.parametrize("mode", ["kauri", "hotstuff-bls", "kudzu"])
    def test_instance_parked_on_its_parents_qc_holds_no_collection(self, mode):
        """Its own vote and the aggregate it sent upward are never read
        again, so the parked frame does not keep them alive."""
        _, parked = self._parked_on_parents_qc(mode)
        for _, task in parked:
            held = [
                name
                for name, value in task._gen.gi_frame.f_locals.items()
                if isinstance(value, Collection)
            ]
            assert held == [], task.name

    def test_second_receive_on_a_parked_instances_tag_raises(self):
        """One receive per tag: a second one on the tag an instance is
        parked on is thrown back, naming the tag; the instance stays."""
        cluster, parked = self._parked_on_parents_qc("kauri")
        node, task = parked[0]
        tag = task._pending_wait.tag
        spawn(cluster.sim, node.endpoint.receive(tag))
        with pytest.raises(SimulationError, match=re.escape(repr(tag))):
            cluster.sim.run(until=cluster.sim.now)
        assert node.endpoint._waiters[tag] is task._pending_wait
        assert task._pending_wait.task is task

    def test_proposal_pump_parked_on_its_parent_is_one_frame(self):
        """The pump writes its parent receive out, as the instance does."""
        cluster = Cluster(n=31, mode="kauri", scenario="global", seed=0)
        cluster.start()
        cluster.run(duration=120.0, max_commits=12)
        pumps = [
            node._view_tasks[None]
            for node in cluster.nodes
            if node.node_id != cluster.policy.leader_of(0)
        ]
        assert len(pumps) == 30
        for task in pumps:
            assert type(task._pending_wait) is MailboxWait
            assert task._pending_wait.tag == ("prop", 0)
            assert task._gen.gi_yieldfrom is None

    @pytest.mark.parametrize("mode", ["kauri", "hotstuff-bls"])
    def test_leader_keeps_pacing_signals_only_for_instances_in_flight(self, mode):
        cluster = Cluster(n=31, mode=mode, scenario="global", seed=0)
        cluster.start()
        cluster.run(duration=120.0, max_commits=36)
        assert cluster.metrics.committed_blocks == 36
        leader = cluster.nodes[cluster.policy.leader_of(0)]
        assert len(leader._prepare_signals) <= len(leader._inflight) + 1


class TestStrategyContract:
    """DESIGN.md, "Adding a protocol": the instance runs a round only
    through the strategy's rules. ``vote_rule`` may return the mechanism's
    coroutine (the built-in style) or be a generator function delegating
    to it; the plain rules may be overridden by delegation. Either way the
    very same run must result."""

    class GeneratorRules:
        def vote_rule(self, node, view, height, phase, block, can_vote):
            own = yield from node._make_vote(view, height, phase, block, can_vote)
            return own

        def qc_quorum(self, node, phase):
            return super().qc_quorum(node, phase)

        def qc_missed(self, node, view, height, phase, is_leader):
            return super().qc_missed(node, view, height, phase, is_leader)

        def commit_rule(self, node, qc, block):
            return super().commit_rule(node, qc, block)

    @pytest.mark.parametrize("mode", ["kauri", "kudzu"])
    def test_generator_style_rules_reproduce_the_default_run(self, mode):
        runs = []
        for generator_style in (False, True):
            cluster = Cluster(n=31, mode=mode, scenario="global", seed=0)
            if generator_style:
                base = type(cluster.nodes[0].protocol)
                strategy = type("Generator" + base.__name__, (self.GeneratorRules, base), {})()
                for node in cluster.nodes:
                    node.protocol = strategy
            cluster.start()
            cluster.run(duration=120.0, max_commits=12)
            runs.append(_fingerprint(cluster))
        assert runs[0] == runs[1]
        if mode == "kauri":  # pinned in tests/test_wait_requests.py too
            assert runs[0] == (12, 15260, 3337, "da5022e99d8dde80")
