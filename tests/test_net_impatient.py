"""Impatient channels (Algorithm 1 and its properties) on the code that runs.

Algorithm 1's receive-or-⊥ is :meth:`~repro.core.comm.TreeComm.wait_for`'s
per-child receive, bounded by ``Δ·(1 + subtree height)``: a child whose
partial does not arrive in time is ⊥, left out of the aggregate.
"""

from repro.config import NetworkParams
from repro.core.comm import TreeComm
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
PKI = Pki(n=3, seed=0)
SCHEME = make_scheme("bls", PKI)
#: What the receive returns when it runs out: no partial was taken.
BOTTOM = frozenset()


def deploy(tree):
    sim = Simulator()
    net = Network(sim, HomogeneousNetem(PARAMS))
    for node in tree.nodes:
        net.register(node)
    comms = {node: TreeComm(sim, net, node, tree, DELTA) for node in tree.nodes}
    return sim, net, comms


def make_channel():
    """Node 0's receive from its child 1; node 2 is outside the tree."""
    sim, net, comms = deploy(Tree(0, {0: [1]}))
    net.register(2)
    return sim, net, comms


def partial(node, value="v"):
    """``node``'s vote for ``value``, as a child sends it up."""
    return SCHEME.new(PKI.keypair(node), value)


def send_partial(net, src, tag, value="v"):
    share = partial(src, value)
    net.send(src, 0, tag, share, share.wire_size())


def receive_at_0(sim, comms, tag, got):
    """Node 0 runs ``wait_for`` with no vote of its own: the signers of
    what it returns are what the receive from child 1 delivered."""

    def receiver():
        coll = yield from comms[0].wait_for(tag, None, SCHEME, Cpu(sim))
        got.append((coll.signers_for("v"), sim.now))

    spawn(sim, receiver())


def test_receive_returns_sent_value():
    """Conditional Accuracy: correct sender + receiver => value delivered."""
    sim, net, comms = make_channel()
    got = []
    receive_at_0(sim, comms, "r1", got)
    share = partial(1)
    comms[1].send_to_parent("r1", share, share.wire_size())
    sim.run()
    assert [value for value, _ in got] == [frozenset({1})]
    assert got[0][1] < DELTA


def test_receive_times_out_to_bottom():
    """Termination: receive always returns, ⊥ if the sender is silent."""
    sim, net, comms = make_channel()
    got = []
    receive_at_0(sim, comms, "r1", got)
    sim.run()
    assert got == [(BOTTOM, DELTA)]


def test_receive_ignores_other_senders():
    """Validity: a non-⊥ value was sent by the channel's peer."""
    sim, net, comms = make_channel()
    got = []
    receive_at_0(sim, comms, "r1", got)
    send_partial(net, 2, "r1")  # not the child, same tag
    sim.run()
    assert got == [(BOTTOM, DELTA)]


def test_receive_ignores_stale_tags():
    """Single-use: tags isolate instances; old-instance traffic is invisible."""
    sim, net, comms = make_channel()
    got = []
    receive_at_0(sim, comms, ("inst", 2), got)
    send_partial(net, 1, ("inst", 1))
    sim.run()
    assert got == [(BOTTOM, DELTA)]


def test_crashed_sender_yields_bottom():
    sim, net, comms = make_channel()
    net.faults.crash(1)
    got = []
    receive_at_0(sim, comms, "r1", got)
    send_partial(net, 1, "r1")
    sim.run()
    assert got == [(BOTTOM, DELTA)]


def test_value_arriving_before_receive_is_kept():
    sim, net, comms = make_channel()
    send_partial(net, 1, "r1")
    sim.run()
    got = []
    receive_at_0(sim, comms, "r1", got)
    sim.run()
    assert [value for value, _ in got] == [frozenset({1})]


def test_value_slower_than_delta_becomes_bottom():
    """Pre-GST behaviour: late messages are indistinguishable from faults."""
    sim, net, comms = make_channel()
    net.faults.set_delay_fn(lambda m: 5.0)  # way beyond delta
    got = []
    receive_at_0(sim, comms, "r1", got)
    send_partial(net, 1, "r1")
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
