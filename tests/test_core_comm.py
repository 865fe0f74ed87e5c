"""Unit tests for broadcastMsg/waitFor on trees (Algorithms 2 and 3).

Includes executable versions of the Theorem 1 (Reliable Dissemination) and
Theorem 2 (Fulfillment) scenarios.
"""

import pytest

from repro.config import NetworkParams, quorum_size
from repro.core.comm import TreeComm
from repro.crypto.keys import Pki
from repro.crypto.signature import make_scheme
from repro.net.impatient import BOTTOM
from repro.net.netem import HomogeneousNetem
from repro.net.network import Network
from repro.sim.cpu import Cpu
from repro.sim.engine import Simulator
from repro.sim.process import spawn, wait_all
from repro.topology.builder import build_star, build_tree
from repro.topology.tree import Tree

PARAMS = NetworkParams("test", rtt=0.020, bandwidth_bps=1e9)
DELTA = 1.0


class Deployment:
    """Tiny harness: one TreeComm + Cpu per process over one tree."""

    def __init__(self, tree, scheme_kind="bls", seed=0):
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, HomogeneousNetem(PARAMS))
        self.tree = tree
        self.pki = Pki(n=max(tree.nodes) + 1, seed=seed)
        self.scheme = make_scheme(scheme_kind, self.pki)
        self.comms = {}
        self.cpus = {}
        for node in tree.nodes:
            self.network.register(node)
            self.comms[node] = TreeComm(self.sim, self.network, node, tree, DELTA)
            self.cpus[node] = Cpu(self.sim)

    def broadcast_all(self, tag, data, size=100, exclude=()):
        """Run Algorithm 2 at every process; return {node: delivered}."""
        results = {}

        def runner(node):
            if node == self.tree.root:
                value = yield from self.comms[node].broadcast(tag, data, size)
            else:
                value = yield from self.comms[node].broadcast(tag, timeout=DELTA)
            results[node] = value

        for node in self.tree.nodes:
            if node not in exclude:
                spawn(self.sim, runner(node))
        self.sim.run()
        return results

    def wait_for_all(self, tag, value, non_voters=(), exclude=()):
        """Run Algorithm 3 at every process; return the root's collection."""
        out = {}

        def runner(node):
            own = None
            if node not in non_voters:
                own = self.scheme.new(self.pki.keypair(node), value)
            coll = yield from self.comms[node].wait_for(
                tag, own, self.scheme, self.cpus[node]
            )
            out[node] = coll

        for node in self.tree.nodes:
            if node not in exclude:
                spawn(self.sim, runner(node))
        self.sim.run()
        return out


@pytest.fixture
def tree7():
    return Tree(0, {0: [1, 2], 1: [3, 4], 2: [5, 6]})


class TestBroadcast:
    def test_reliable_dissemination_fault_free(self, tree7):
        """Theorem 1 in a robust tree: every correct process delivers."""
        deployment = Deployment(tree7)
        results = deployment.broadcast_all("t", "blockdata")
        assert results == {node: "blockdata" for node in range(7)}

    def test_faulty_internal_cuts_subtree(self, tree7):
        """Non-robust tree: the faulty internal node's subtree gets ⊥ but
        every receive still terminates (impatient channels)."""
        deployment = Deployment(tree7)
        deployment.network.faults.crash(1)
        results = deployment.broadcast_all("t", "blockdata", exclude=(1,))
        assert results[2] == "blockdata"
        assert results[5] == "blockdata"
        assert results[3] is BOTTOM
        assert results[4] is BOTTOM

    def test_faulty_root_yields_bottom_everywhere(self, tree7):
        deployment = Deployment(tree7)
        deployment.network.faults.crash(0)
        results = deployment.broadcast_all("t", "blockdata", exclude=(0,))
        assert all(value is BOTTOM for value in results.values())

    def test_broadcast_on_star_matches_hotstuff_pattern(self):
        star = build_star(range(5))
        deployment = Deployment(star)
        results = deployment.broadcast_all("t", "x")
        assert results == {node: "x" for node in range(5)}
        # only the leader transmits; replicas never forward
        for node in range(1, 5):
            assert deployment.network.nics[node].messages_sent == 0

    def test_dissemination_latency_scales_with_height(self):
        """Each tree level adds (at least) one propagation delay."""
        flat = Deployment(build_star(range(8)))
        deep = Deployment(build_tree(range(8), height=3, root_fanout=2))
        flat.broadcast_all("t", "x")
        t_flat = flat.sim.now
        deep.broadcast_all("t", "x")
        t_deep = deep.sim.now
        assert t_deep > t_flat


class TestWaitFor:
    def test_fulfillment_fault_free(self, tree7):
        """Theorem 2 in a robust tree: the root aggregates all N votes."""
        deployment = Deployment(tree7)
        out = deployment.wait_for_all("v", "value")
        root_coll = out[0]
        assert root_coll.signers_for("value") == frozenset(range(7))
        assert root_coll.has("value", quorum_size(7))

    def test_fulfillment_with_faulty_leaves(self, tree7):
        """f = 2 faulty leaves: the quorum of N - f = 5 is still reached."""
        deployment = Deployment(tree7)
        deployment.network.faults.crash(3)
        deployment.network.faults.crash(6)
        out = deployment.wait_for_all("v", "value", exclude=(3, 6))
        root_coll = out[0]
        assert root_coll.signers_for("value") == frozenset({0, 1, 2, 4, 5})
        assert root_coll.has("value", quorum_size(7))

    def test_faulty_internal_loses_subtree_votes(self, tree7):
        """A crashed internal node silences its whole subtree; the root
        still terminates with a partial aggregate (Theorem 2's liveness
        comes from impatient channels)."""
        deployment = Deployment(tree7)
        deployment.network.faults.crash(1)
        out = deployment.wait_for_all("v", "value", exclude=(1,))
        root_coll = out[0]
        assert root_coll.signers_for("value") == frozenset({0, 2, 5, 6})
        assert not root_coll.has("value", quorum_size(7))

    def test_non_voter_still_relays_children(self, tree7):
        """A process without a vote of its own aggregates its subtree
        (Algorithm 3 with an empty initial collection)."""
        deployment = Deployment(tree7)
        out = deployment.wait_for_all("v", "value", non_voters=(1,))
        assert out[0].signers_for("value") == frozenset({0, 2, 3, 4, 5, 6})

    def test_secp_scheme_aggregates_as_lists(self, tree7):
        deployment = Deployment(tree7, scheme_kind="secp")
        out = deployment.wait_for_all("v", "value")
        assert out[0].signers_for("value") == frozenset(range(7))

    def test_aggregate_sizes_constant_up_the_tree_with_bls(self):
        """§3.3.2: each internal node sends one constant-size aggregate."""
        tree = build_tree(range(13), height=2, root_fanout=3)
        deployment = Deployment(tree)
        deployment.wait_for_all("v", "value")
        sizes = set()
        for node in tree.internal_nodes:
            if node == tree.root:
                continue
            nic = deployment.network.nics[node]
            sizes.add(nic.bytes_sent)
        assert len(sizes) == 1  # identical aggregate size regardless of subtree

    def test_wait_for_terminates_with_all_children_faulty(self, tree7):
        deployment = Deployment(tree7)
        for child in (1, 2):
            deployment.network.faults.crash(child)
        out = deployment.wait_for_all("v", "value", exclude=(1, 2))
        assert out[0].signers_for("value") == frozenset({0})
        assert deployment.sim.now >= DELTA  # waited out the impatient bound


class TestGarbageTolerance:
    def test_non_collection_payload_ignored(self, tree7):
        """Byzantine child sends garbage instead of a collection."""
        deployment = Deployment(tree7)
        results = {}

        def root():
            own = deployment.scheme.new(deployment.pki.keypair(0), "v")
            coll = yield from deployment.comms[0].wait_for(
                "v", own, deployment.scheme, deployment.cpus[0]
            )
            results[0] = coll

        spawn(deployment.sim, root())
        deployment.network.send(1, 0, "v", "not-a-collection", 100)
        deployment.network.send(2, 0, "v", 12345, 100)
        deployment.sim.run()
        assert results[0].signers_for("v") == frozenset({0})
