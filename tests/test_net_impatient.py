"""Impatient channels (Algorithm 1 and its properties) on the code that runs.

Algorithm 1's receive-or-⊥ is :class:`~repro.core.comm.TreeComm`'s:
``receive_from_parent`` for a bounded receive from the parent, and
``wait_for``'s per-child receives bounded by ``Δ·(1 + subtree height)``.
"""

from repro.config import NetworkParams
from repro.core.comm import BOTTOM, TreeComm
from repro.crypto.keys import Pki
from repro.crypto.signature import make_scheme
from repro.net.netem import HomogeneousNetem
from repro.net.network import Network
from repro.sim.cpu import Cpu
from repro.sim.engine import Simulator
from repro.sim.process import spawn
from repro.topology.tree import Tree

PARAMS = NetworkParams("test", rtt=0.100, bandwidth_bps=1e9)
DELTA = 1.0


def deploy(tree):
    sim = Simulator()
    net = Network(sim, HomogeneousNetem(PARAMS))
    for node in tree.nodes:
        net.register(node)
    comms = {node: TreeComm(sim, net, node, tree, DELTA) for node in tree.nodes}
    return sim, net, comms


def make_channel():
    """Node 1's receive from its parent 0; node 2 is 1's sibling."""
    return deploy(Tree(0, {0: [1, 2]}))


def receive_at_1(sim, comms, tag, got):
    def receiver():
        msg = yield from comms[1].receive_from_parent(tag, DELTA)
        got.append((msg if msg is BOTTOM else msg.payload, sim.now))

    spawn(sim, receiver())


def test_receive_returns_sent_value():
    """Conditional Accuracy: correct sender + receiver => value delivered."""
    sim, net, comms = make_channel()
    got = []
    receive_at_1(sim, comms, "r1", got)
    comms[0].send_to_children("r1", "value", 100)
    sim.run()
    assert [value for value, _ in got] == ["value"]


def test_receive_times_out_to_bottom():
    """Termination: receive always returns, ⊥ if the sender is silent."""
    sim, net, comms = make_channel()
    got = []
    receive_at_1(sim, comms, "r1", got)
    sim.run()
    assert got == [(BOTTOM, DELTA)]
    assert not BOTTOM  # ⊥ is falsy


def test_receive_ignores_other_senders():
    """Validity: a non-⊥ value was sent by the channel's peer."""
    sim, net, comms = make_channel()
    got = []
    receive_at_1(sim, comms, "r1", got)
    net.send(2, 1, "r1", "imposter", 100)  # the sibling, same tag
    sim.run()
    assert got == [(BOTTOM, DELTA)]


def test_receive_ignores_stale_tags():
    """Single-use: tags isolate instances; old-instance traffic is invisible."""
    sim, net, comms = make_channel()
    got = []
    receive_at_1(sim, comms, ("inst", 2), got)
    net.send(0, 1, ("inst", 1), "stale", 100)
    sim.run()
    assert got == [(BOTTOM, DELTA)]


def test_crashed_sender_yields_bottom():
    sim, net, comms = make_channel()
    net.faults.crash(0)
    got = []
    receive_at_1(sim, comms, "r1", got)
    net.send(0, 1, "r1", "never", 100)
    sim.run()
    assert got == [(BOTTOM, DELTA)]


def test_value_arriving_before_receive_is_kept():
    sim, net, comms = make_channel()
    net.send(0, 1, "r1", "early", 100)
    sim.run()
    got = []
    receive_at_1(sim, comms, "r1", got)
    sim.run()
    assert [value for value, _ in got] == ["early"]


def test_value_slower_than_delta_becomes_bottom():
    """Pre-GST behaviour: late messages are indistinguishable from faults."""
    sim, net, comms = make_channel()
    net.faults.set_delay_fn(lambda m: 5.0)  # way beyond delta
    got = []
    receive_at_1(sim, comms, "r1", got)
    net.send(0, 1, "r1", "late", 100)
    sim.run()
    assert got == [(BOTTOM, DELTA)]


def root_aggregate(tree, silent=(), delay=None):
    """Run ``wait_for`` at every process of ``tree`` but ``silent`` ones;
    return the root's collection and the instant it completed."""
    sim, net, comms = deploy(tree)
    if delay is not None:
        net.faults.set_delay_fn(lambda m: delay)
    pki = Pki(n=len(tree.nodes), seed=0)
    scheme = make_scheme("bls", pki)
    out = {}

    def runner(node):
        own = scheme.new(pki.keypair(node), "v")
        coll = yield from comms[node].wait_for("t", own, scheme, Cpu(sim))
        if node == tree.root:
            out["root"] = (coll.signers_for("v"), sim.now)

    for node in tree.nodes:
        if node not in silent:
            spawn(sim, runner(node))
    sim.run()
    return out["root"]


def test_late_partial_is_left_out_at_delta():
    """A leaf's partial slower than Δ is ⊥ to its parent: the root
    aggregates without it, at Δ after entering the phase."""
    signers, done = root_aggregate(Tree(0, {0: [1, 2]}), delay=5.0)
    assert signers == frozenset({0})
    assert done == DELTA


def test_deeper_child_gets_one_delta_per_level():
    """A child heading a subtree of height 1 is waited on for 2Δ."""
    signers, done = root_aggregate(Tree(0, {0: [1], 1: [2]}), silent=(1, 2))
    assert signers == frozenset({0})
    assert done == 2 * DELTA
