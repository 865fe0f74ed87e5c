"""Unit tests for impatient channels (Algorithm 1 and its properties)."""

import pytest

from repro.config import NetworkParams
from repro.net.faults import FaultInjector
from repro.net.impatient import BOTTOM, ImpatientChannel
from repro.net.netem import HomogeneousNetem
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.process import spawn

PARAMS = NetworkParams("test", rtt=0.100, bandwidth_bps=1e9)
DELTA = 1.0


def make_channel(n=2, delta=DELTA):
    sim = Simulator()
    net = Network(sim, HomogeneousNetem(PARAMS))
    for node in range(n):
        net.register(node)
    # channel at node 1 receiving from node 0
    return sim, net, ImpatientChannel(net, local=1, peer=0, delta=delta)


def test_receive_returns_sent_value():
    """Conditional Accuracy: correct sender + receiver => value delivered."""
    sim, net, ic = make_channel()
    got = []

    def receiver():
        got.append((yield from ic.receive("r1")))

    spawn(sim, receiver())
    sender = ImpatientChannel(net, local=0, peer=1, delta=DELTA)
    sender.send("r1", "value", 100)
    sim.run()
    assert got == ["value"]


def test_receive_times_out_to_bottom():
    """Termination: receive always returns, ⊥ if the sender is silent."""
    sim, net, ic = make_channel()
    got = []

    def receiver():
        got.append(((yield from ic.receive("r1")), sim.now))

    spawn(sim, receiver())
    sim.run()
    assert got == [(BOTTOM, DELTA)]
    assert not BOTTOM  # ⊥ is falsy


def test_receive_ignores_other_senders():
    """Validity: a non-⊥ value was sent by the channel's peer."""
    sim, net, ic = make_channel(n=3)
    got = []

    def receiver():
        got.append((yield from ic.receive("r1")))

    spawn(sim, receiver())
    net.send(2, 1, "r1", "imposter", 100)  # wrong peer, same tag
    sim.run()
    assert got == [BOTTOM]


def test_receive_ignores_stale_tags():
    """Single-use: tags isolate instances; old-instance traffic is invisible."""
    sim, net, ic = make_channel()
    got = []

    def receiver():
        got.append((yield from ic.receive(("inst", 2))))

    spawn(sim, receiver())
    net.send(0, 1, ("inst", 1), "stale", 100)
    sim.run()
    assert got == [BOTTOM]


def test_crashed_sender_yields_bottom():
    sim, net, ic = make_channel()
    net.faults.crash(0)
    got = []

    def receiver():
        got.append((yield from ic.receive("r1")))

    spawn(sim, receiver())
    net.send(0, 1, "r1", "never", 100)
    sim.run()
    assert got == [BOTTOM]


def test_value_arriving_before_receive_is_kept():
    sim, net, ic = make_channel()
    net.send(0, 1, "r1", "early", 100)
    sim.run()
    got = []

    def receiver():
        got.append((yield from ic.receive("r1")))

    spawn(sim, receiver())
    sim.run()
    assert got == ["early"]


def test_value_slower_than_delta_becomes_bottom():
    """Pre-GST behaviour: late messages are indistinguishable from faults."""
    sim, net, ic = make_channel()
    net.faults.set_delay_fn(lambda m: 5.0)  # way beyond delta
    got = []

    def receiver():
        got.append(((yield from ic.receive("r1")), sim.now))

    spawn(sim, receiver())
    net.send(0, 1, "r1", "late", 100)
    sim.run()
    assert got == [(BOTTOM, DELTA)]


def test_invalid_delta_rejected():
    sim = Simulator()
    net = Network(sim, HomogeneousNetem(PARAMS))
    net.register(0)
    net.register(1)
    with pytest.raises(ValueError):
        ImpatientChannel(net, local=1, peer=0, delta=0.0)
