"""Unit tests for the network fabric and endpoints."""

import pytest

from repro.config import NetworkParams
from repro.errors import NetworkError, SimulationError
from repro.net.faults import FaultInjector
from repro.net.netem import HomogeneousNetem
from repro.net.network import Network, HEADER_BYTES
from repro.sim.engine import Simulator
from repro.sim.process import TIMEOUT, spawn

PARAMS = NetworkParams("test", rtt=0.100, bandwidth_bps=8_000_000.0)  # 1 MB/s


def make_network(n=4, params=PARAMS, seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim, HomogeneousNetem(params))
    for node in range(n):
        net.register(node)
    return sim, net


def test_send_delivers_with_serialization_plus_propagation():
    sim, net = make_network()
    got = []

    def receiver():
        msg = yield from net.endpoint(1).receive("tag")
        got.append((sim.now, msg.payload))

    spawn(sim, receiver())
    size = 1_000_000 - HEADER_BYTES  # wire = 1 MB exactly
    sim.schedule(0.0, net.send, 0, 1, "tag", "hello", size)
    sim.run()
    # serialization 1 s at 1 MB/s + propagation 0.05 s
    assert got == [(pytest.approx(1.05), "hello")]


def test_queued_message_received_after_arrival():
    sim, net = make_network()
    got = []
    net.send(0, 1, "tag", 123, 0)
    sim.run()  # deliver first

    def receiver():
        msg = yield from net.endpoint(1).receive("tag")
        got.append(msg.payload)

    spawn(sim, receiver())
    sim.run()
    assert got == [123]


def test_receive_timeout_returns_sentinel():
    sim, net = make_network()
    got = []

    def receiver():
        result = yield from net.endpoint(1).receive("tag", timeout=0.5)
        got.append((sim.now, result))

    spawn(sim, receiver())
    sim.run()
    assert got == [(0.5, TIMEOUT)]


def test_match_filter_selects_sender():
    sim, net = make_network()
    got = []

    def receiver():
        msg = yield from net.endpoint(2).receive("t", src=1)
        got.append(msg.src)

    spawn(sim, receiver())
    net.send(0, 2, "t", "from0", 10)
    net.send(1, 2, "t", "from1", 10)
    sim.run()
    assert got == [1]
    # the unmatched message remains queued
    assert net.endpoint(2).queued_messages == 1


def test_multiple_receivers_fifo_by_tag():
    """Receivers of one tag, one after another, take its messages in
    arrival order: the first two parked, the third from the queue."""
    sim, net = make_network()
    got = []

    def receiver(tag_order, then=None):
        msg = yield from net.endpoint(1).receive("t")
        got.append((tag_order, msg.payload))
        if then is not None:
            spawn(sim, receiver(then))

    spawn(sim, receiver("first", then="second"))
    for payload in "ABC":
        net.send(0, 1, "t", payload, 10)
    sim.run()
    assert got == [("first", "A"), ("second", "B")]
    assert net.endpoint(1).queued_messages == 1
    spawn(sim, receiver("third"))
    sim.run()
    assert got[2:] == [("third", "C")]
    assert net.endpoint(1).queued_messages == 0


def test_second_receive_parked_on_a_tag_raises():
    """One receive per tag: a second one parked on a tag with a live
    waiter is thrown back into its task, naming the tag, and the live
    waiter still gets the tag's next message."""
    sim, net = make_network()
    got = []

    def receiver():
        msg = yield from net.endpoint(1).receive(("qc", 3))
        got.append(msg.payload)

    spawn(sim, receiver())
    spawn(sim, receiver())
    with pytest.raises(SimulationError, match=r"second receive on tag \('qc', 3\)"):
        sim.run()
    net.send(0, 1, ("qc", 3), "A", 10)
    sim.run()
    assert got == ["A"]
    assert net.endpoint(1)._waiters == {}


def test_self_send_is_immediate():
    sim, net = make_network()
    got = []

    def receiver():
        msg = yield from net.endpoint(0).receive("self")
        got.append((sim.now, msg.payload))

    spawn(sim, receiver())
    sim.schedule(1.0, net.send, 0, 0, "self", "me", 10**9)
    sim.run()
    assert got == [(1.0, "me")]
    assert net.nic(0).bytes_sent == 0  # bypasses the NIC


def test_sender_nic_shared_across_destinations():
    """The root's sends to its children serialize on one uplink (§4.3)."""
    sim, net = make_network(n=5)
    arrivals = []

    def receiver(node):
        msg = yield from net.endpoint(node).receive("blk")
        arrivals.append((node, sim.now))

    for node in range(1, 5):
        spawn(sim, receiver(node))
    size = 1_000_000 - HEADER_BYTES
    for node in range(1, 5):
        net.send(0, node, "blk", "block", size)
    sim.run()
    times = dict(arrivals)
    assert times[1] == pytest.approx(1.05)
    assert times[2] == pytest.approx(2.05)
    assert times[3] == pytest.approx(3.05)
    assert times[4] == pytest.approx(4.05)


def test_crashed_sender_messages_dropped():
    sim, net = make_network()
    net.faults.crash(0)
    net.send(0, 1, "t", "x", 10)
    sim.run()
    assert net.endpoint(1).queued_messages == 0
    assert net.faults.dropped_messages >= 1


def test_crashed_receiver_messages_dropped():
    sim, net = make_network()
    net.faults.crash_at(1, 0.0)
    sim.schedule(0.1, net.send, 0, 1, "t", "x", 10)
    sim.run()
    assert net.endpoint(1).queued_messages == 0


def test_omission_edge_drops_one_direction():
    sim, net = make_network()
    net.faults.omit_edge(0, 1)
    net.send(0, 1, "t", "lost", 10)
    net.send(1, 0, "t", "kept", 10)
    sim.run()
    assert net.endpoint(1).queued_messages == 0
    assert net.endpoint(0).queued_messages == 1


def test_injected_delay_applies():
    sim, net = make_network()
    net.faults.set_delay_fn(lambda msg: 2.0)
    got = []

    def receiver():
        msg = yield from net.endpoint(1).receive("t")
        got.append(sim.now)

    spawn(sim, receiver())
    net.send(0, 1, "t", "x", 0)
    sim.run()
    # header serialization (64B at 1MB/s = 64us) + 0.05 prop + 2.0 injected
    assert got[0] == pytest.approx(2.050064, abs=1e-6)


def test_purge_discards_stale_tags():
    sim, net = make_network()
    net.send(0, 1, ("view", 1, "x"), "a", 10)
    net.send(0, 1, ("view", 2, "x"), "b", 10)
    sim.run()
    endpoint = net.endpoint(1)
    assert endpoint.queued_messages == 2
    dropped = endpoint.purge(lambda tag: tag[1] < 2)
    assert dropped == 1
    assert endpoint.queued_messages == 1


def test_unregistered_process_rejected():
    sim, net = make_network(n=2)
    with pytest.raises(NetworkError):
        net.send(0, 99, "t", "x", 10)
    with pytest.raises(NetworkError):
        net.endpoint(99)
    with pytest.raises(NetworkError):
        net.nic(99)


def test_cancelled_receiver_does_not_consume_message():
    sim, net = make_network()

    def receiver():
        yield from net.endpoint(1).receive("t")

    task = spawn(sim, receiver())
    sim.schedule(0.01, task.cancel)
    sim.schedule(1.0, net.send, 0, 1, "t", "x", 10)
    sim.run()
    assert net.endpoint(1).queued_messages == 1  # message preserved


def test_message_latency_recorded():
    sim, net = make_network()
    msg = net.send(0, 1, "t", "x", 1000)
    sim.run()
    assert msg.delivered_at is not None
    assert msg.latency > 0.05  # at least propagation


def test_message_counters():
    sim, net = make_network()
    net.send(0, 1, "a", 1, 10)
    net.send(1, 2, "b", 2, 10)
    sim.run()
    assert net.messages_sent == 2
    assert net.messages_delivered == 2
