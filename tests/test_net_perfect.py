"""Unit tests for perfect channels built from retransmission + dedup (§2)."""

import pytest

from repro.config import NetworkParams
from repro.net.netem import HomogeneousNetem
from repro.net.network import Network
from repro.net.perfect import ReliableLink
from repro.sim.engine import Simulator

PARAMS = NetworkParams("test", rtt=0.020, bandwidth_bps=1e9)


def make_link(loss_pattern=None, seed=0):
    """loss_pattern: function(msg) -> bool, applied to data+ack traffic."""
    sim = Simulator(seed=seed)
    net = Network(sim, HomogeneousNetem(PARAMS))
    net.register(0)
    net.register(1)
    if loss_pattern is not None:
        net.faults.set_drop_predicate(loss_pattern)
    link = ReliableLink(net, src=0, dst=1, resend_interval=0.1)
    return sim, net, link


def test_lossless_delivery():
    sim, net, link = make_link()
    link.send("hello", 100)
    sim.run(until=1.0)
    assert link.delivered == ["hello"]
    assert link.pending == 0
    assert link.retransmissions == 0
    link.close()


def test_termination_under_finite_loss():
    """Drop the first 3 transmissions; the 4th succeeds."""
    drops = {"count": 0}

    def lossy(msg):
        if msg.tag[0] == "__rl_data__" and drops["count"] < 3:
            drops["count"] += 1
            return True
        return False

    sim, net, link = make_link(loss_pattern=lossy)
    link.send("persistent", 100)
    sim.run(until=2.0)
    assert link.delivered == ["persistent"]
    assert link.retransmissions >= 3
    assert link.pending == 0
    link.close()


def test_duplicate_suppression_on_lost_acks():
    """Losing acks forces resends; the receiver must deliver exactly once."""
    drops = {"count": 0}

    def lossy(msg):
        if msg.tag[0] == "__rl_ack__" and drops["count"] < 2:
            drops["count"] += 1
            return True
        return False

    sim, net, link = make_link(loss_pattern=lossy)
    link.send("once", 100)
    sim.run(until=2.0)
    assert link.delivered == ["once"]  # exactly once despite resends
    assert link.pending == 0
    link.close()


def test_in_order_delivery_despite_reordered_success():
    """First message lost twice, second sails through: order preserved."""
    state = {"first_drops": 0}

    def lossy(msg):
        if msg.tag[0] == "__rl_data__" and msg.payload[0] == 0 and state["first_drops"] < 2:
            state["first_drops"] += 1
            return True
        return False

    sim, net, link = make_link(loss_pattern=lossy)
    link.send("first", 100)
    link.send("second", 100)
    sim.run(until=2.0)
    assert link.delivered == ["first", "second"]
    link.close()


def test_many_messages_all_delivered():
    sim, net, link = make_link()
    for i in range(50):
        link.send(i, 10)
    sim.run(until=5.0)
    assert link.delivered == list(range(50))
    link.close()


def test_on_deliver_callback():
    sim = Simulator()
    net = Network(sim, HomogeneousNetem(PARAMS))
    net.register(0)
    net.register(1)
    seen = []
    link = ReliableLink(net, 0, 1, resend_interval=0.1, on_deliver=seen.append)
    link.send("cb", 10)
    sim.run(until=1.0)
    assert seen == ["cb"]
    link.close()


def test_random_loss_eventually_delivers():
    """Probabilistic loss on both directions; perfect-channel termination."""
    sim = Simulator(seed=7)
    net = Network(sim, HomogeneousNetem(PARAMS))
    net.register(0)
    net.register(1)
    rng = sim.rng
    net.faults.set_drop_predicate(lambda msg: rng.random() < 0.4)
    link = ReliableLink(net, 0, 1, resend_interval=0.05)
    for i in range(20):
        link.send(i, 10)
    sim.run(until=30.0)
    assert link.delivered == list(range(20))
    assert link.pending == 0
    link.close()
