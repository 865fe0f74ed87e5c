"""FIFO-ordering properties of the fabric.

The protocol relies on per-link FIFO delivery (a child receives height-h
proposals before height-h+1: both traverse the same links and NICs are
FIFO). These property tests pin that down.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkParams
from repro.net.netem import HomogeneousNetem
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.process import spawn

PARAMS = NetworkParams("t", rtt=0.02, bandwidth_bps=1e6)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 5000), min_size=1, max_size=20))
def test_same_link_same_tag_fifo(sizes):
    """Messages of arbitrary sizes on one link arrive in send order."""
    sim = Simulator()
    net = Network(sim, HomogeneousNetem(PARAMS))
    net.register(0)
    net.register(1)
    got = []

    def receiver(count):
        for _ in range(count):
            msg = yield from net.endpoint(1).receive("t")
            got.append(msg.payload)

    spawn(sim, receiver(len(sizes)))
    for index, size in enumerate(sizes):
        net.send(0, 1, "t", index, size)
    sim.run()
    assert got == list(range(len(sizes)))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 5000), min_size=2, max_size=12), st.integers(0, 3))
def test_two_hop_forwarding_preserves_order(sizes, seed):
    """Store-and-forward through a relay keeps the original order -- the
    property the proposal pump depends on for parent-before-child blocks."""
    sim = Simulator(seed=seed)
    net = Network(sim, HomogeneousNetem(PARAMS))
    for node in range(3):
        net.register(node)
    got = []

    def relay(count):
        for _ in range(count):
            msg = yield from net.endpoint(1).receive("hop1")
            net.send(1, 2, "hop2", msg.payload, msg.size)

    def sink(count):
        for _ in range(count):
            msg = yield from net.endpoint(2).receive("hop2")
            got.append(msg.payload)

    spawn(sim, relay(len(sizes)))
    spawn(sim, sink(len(sizes)))
    for index, size in enumerate(sizes):
        net.send(0, 1, "hop1", index, size)
    sim.run()
    assert got == list(range(len(sizes)))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 5))
def test_multi_lane_nics_may_reorder_across_sizes_but_not_equal_sizes(lanes, seed):
    """With parallel lanes, equal-size back-to-back messages still arrive
    in order (they start in lane order and finish in start order)."""
    sim = Simulator(seed=seed)
    net = Network(sim, HomogeneousNetem(PARAMS), uplink_lanes=lanes)
    net.register(0)
    net.register(1)
    got = []

    def receiver(count):
        for _ in range(count):
            msg = yield from net.endpoint(1).receive("t")
            got.append(msg.payload)

    count = 10
    spawn(sim, receiver(count))
    for index in range(count):
        net.send(0, 1, "t", index, 1000)
    sim.run()
    assert got == list(range(count))
