"""Fabric multicast: one message per destination through ``send``'s body.

`Network.multicast` is `[send(src, dst, ...) for dst in dsts]` over one
private emit body. The direct tests below pin what a fan-out does under
faults -- completion k of one fan-out falls at the k-th back-to-back
serialization on the sender's lanes, and each message's fault decision is
taken at its own completion or delivery. The equivalence tests compare
`multicast` with that loop written out here, put in its place on the one
network instance under test, across seeds, fanouts, lanes and faults, and
for whole consensus runs: they fail if a second emit path reappears.

Also covers the link-param memo (a swapped shaper reprices traffic) and
`Endpoint.purge` leaving live waiters alone.
"""

import math

import pytest

from repro import Cluster
from repro.config import NetworkParams
from repro.errors import NetworkError
from repro.net.netem import HomogeneousNetem
from repro.net.message import Message
from repro.net.network import HEADER_BYTES, Network
from repro.obs.report import build_report, report_json
from repro.sim.engine import Simulator
from repro.sim.process import TIMEOUT, spawn

# ---------------------------------------------------------------------------
# One fan-out under faults, asserted directly
# ---------------------------------------------------------------------------

#: 1,000 bytes on the wire at 1 Mb/s: one serialization takes 8 ms.
BANDWIDTH = 1e6
SIZE = 1000 - HEADER_BYTES
TX = (SIZE + HEADER_BYTES) * 8 / BANDWIDTH
PROP = 0.002
FANOUT = (1, 2, 3, 4, 5)


def _fanout_net(lanes):
    sim = Simulator()
    params = NetworkParams("t", rtt=2 * PROP, bandwidth_bps=BANDWIDTH)
    net = Network(sim, HomogeneousNetem(params), uplink_lanes=lanes)
    for node in range(len(FANOUT) + 1):
        net.register(node)
    events = []
    net.observers.append(
        lambda kind, msg, time: events.append((kind, msg.dst, time))
    )
    return sim, net, events


def _completion(k, lanes):
    """Instant the k-th message (1-based) of a fan-out started at 0 leaves
    a NIC with ``lanes`` lanes: the k-th serialization back to back."""
    return math.ceil(k / lanes) * TX


def _delivered(events):
    return {dst: time for kind, dst, time in events if kind == "deliver"}


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("rounds", [0, 1, 2, 3])
def test_sender_crash_mid_fanout_drops_exactly_the_later_messages(lanes, rounds):
    """The armed path decides at each completion: a sender crash after
    ``rounds`` serialization rounds drops every message completing later."""
    sim, net, events = _fanout_net(lanes)
    crash_time = (rounds + 0.5) * TX
    net.faults.crash_at(0, crash_time)
    net.multicast(0, FANOUT, "blk", None, SIZE)
    sim.run()
    survivors = FANOUT[: rounds * lanes]
    delivered = _delivered(events)
    assert sorted(delivered) == list(survivors)
    for i, dst in enumerate(survivors, 1):
        assert delivered[dst] == pytest.approx(_completion(i, lanes) + PROP)
    drops = [(dst, time) for kind, dst, time in events if kind == "drop"]
    assert drops == [
        (dst, pytest.approx(_completion(i, lanes)))
        for i, dst in enumerate(FANOUT, 1) if dst not in survivors
    ]
    assert net.faults.dropped_messages == len(FANOUT) - len(survivors)
    assert net.nics[0].messages_sent == len(FANOUT)


@pytest.mark.parametrize("lanes", [1, 2])
def test_crashed_destination_loses_only_its_own_message(lanes):
    """Node 3 crashes after its message left the NIC and before it
    arrives: that message is dropped at delivery, no other is touched."""
    sim, net, events = _fanout_net(lanes)
    net.faults.crash_at(3, _completion(3, lanes) + PROP / 2)
    net.multicast(0, FANOUT, "blk", None, SIZE)
    sim.run()
    delivered = _delivered(events)
    assert sorted(delivered) == [1, 2, 4, 5]
    for i, dst in enumerate(FANOUT, 1):
        if dst != 3:
            assert delivered[dst] == pytest.approx(_completion(i, lanes) + PROP)
    drops = [(dst, time) for kind, dst, time in events if kind == "drop"]
    assert drops == [(3, pytest.approx(_completion(3, lanes) + PROP))]
    assert net.faults.dropped_messages == 1
    assert net.nics[0].messages_sent == len(FANOUT)


@pytest.mark.parametrize("lanes", [1, 2])
def test_omission_edge_drops_only_its_own_pair(lanes):
    sim, net, events = _fanout_net(lanes)
    net.faults.omit_edge(0, 2)
    net.multicast(0, FANOUT, "blk", None, SIZE)
    sim.run()
    delivered = _delivered(events)
    assert sorted(delivered) == [1, 3, 4, 5]
    for i, dst in enumerate(FANOUT, 1):
        if dst != 2:
            assert delivered[dst] == pytest.approx(_completion(i, lanes) + PROP)
    drops = [(dst, time) for kind, dst, time in events if kind == "drop"]
    assert drops == [(2, pytest.approx(_completion(2, lanes)))]
    assert net.nics[0].messages_sent == len(FANOUT)


def test_sender_in_its_own_dsts_gets_its_message_synchronously():
    """The self-send is delivered inside the call, in its place in the
    order, and takes no slot on the NIC."""
    sim, net, events = _fanout_net(lanes=1)
    msgs = net.multicast(0, (1, 0, 2), "t", "x", SIZE)
    assert [m.dst for m in msgs] == [1, 0, 2]
    assert [(kind, dst) for kind, dst, _ in events] == [
        ("send", 1), ("send", 0), ("deliver", 0), ("send", 2),
    ]
    assert msgs[1].delivered_at == 0.0
    assert net.endpoints[0].messages_delivered == 1
    sim.run()
    assert net.messages_delivered == 3
    assert net.nics[0].messages_sent == 2
    assert msgs[2].delivered_at == pytest.approx(2 * TX + PROP)


def test_unregistered_destination_stops_the_fanout_at_its_turn():
    """The messages before the unregistered destination are sent, charged
    and delivered; the error names the pair."""
    sim, net, _events = _fanout_net(lanes=1)
    with pytest.raises(NetworkError, match="0->7"):
        net.multicast(0, (1, 2, 7), "t", "x", SIZE)
    assert net.messages_sent == sum(nic.messages_sent for nic in net.nics.values())
    assert net.messages_sent == 2
    sim.run()
    assert net.messages_delivered == 2


def test_empty_destination_list_is_noop():
    sim = Simulator()
    net = Network(sim, HomogeneousNetem(NetworkParams("t", rtt=0.002, bandwidth_bps=1e9)))
    net.register(0)
    assert net.multicast(0, (), "t", "x", 10) == []
    assert net.messages_sent == 0 and sim.pending_events == 0


# ---------------------------------------------------------------------------
# Fabric-level equivalence with the loop of ``send``
# ---------------------------------------------------------------------------

FAULT_CONFIGS = {
    "none": lambda faults: None,
    "crash-src": lambda faults: faults.crash_at(0, 0.004),
    "crash-dst": lambda faults: faults.crash_at(3, 0.003),
    "omission": lambda faults: (faults.omit_edge(0, 2), faults.omit_edge(1, 4)),
}


def _sequential_multicast(net):
    """The loop `Network.multicast` is, over the public `send`."""
    def multicast(src, dsts, tag, payload, size):
        return [net.send(src, dst, tag, payload, size) for dst in dsts]
    return multicast


def _drive(multicast, *, fanout, lanes, fault, seed):
    """One deterministic traffic pattern; returns comparable state."""
    sim = Simulator(seed=seed)
    params = NetworkParams(name="t", rtt=0.004, bandwidth_bps=25_000_000.0)
    net = Network(sim, HomogeneousNetem(params), uplink_lanes=lanes)
    if not multicast:
        net.multicast = _sequential_multicast(net)
    events = []
    net.observers.append(
        lambda kind, msg, time: events.append(
            (time, kind, msg.src, msg.dst, msg.tag, msg.size)
        )
    )
    n = fanout + 2
    for node in range(n):
        net.register(node)
    FAULT_CONFIGS[fault](net.faults)

    rng_offsets = [0.0011 * (i + seed % 3) for i in range(4)]

    def traffic():
        for round_no, offset in enumerate(rng_offsets):
            # Overlapping fan-outs from two sources, so fan-outs queue
            # behind each other and (with lanes > 1) interleave lanes.
            net.multicast(0, tuple(range(1, fanout + 1)), ("blk", round_no),
                          payload=round_no, size=1000 + 17 * round_no)
            net.multicast(1, tuple(range(2, fanout + 2)), ("vote", round_no),
                          payload=None, size=96)
            yield from _sleep(sim, offset)

    spawn(sim, traffic(), name="traffic")
    sim.run()
    return {
        "events": events,
        "events_processed": sim.events_processed,
        "now": sim.now,
        "messages": (net.messages_sent, net.messages_delivered),
        "dropped": net.faults.dropped_messages,
        "nics": {
            node: (
                nic._lane_busy_until,
                [(log.starts, log.ends) for log in nic._lane_logs],
                (nic._byte_times, nic._byte_totals),
                nic.bytes_sent,
                nic.messages_sent,
                nic.total_queueing_delay,
                nic.total_tx_time,
                nic.max_backlog,
                nic.max_queue_depth,
            )
            for node, nic in net.nics.items()
        },
        "endpoints": {
            node: (ep.messages_delivered, ep.bytes_delivered, ep.queued_messages)
            for node, ep in net.endpoints.items()
        },
    }


def _sleep(sim, duration):
    from repro.sim.process import Sleep

    yield Sleep(duration)


@pytest.mark.parametrize("fault", sorted(FAULT_CONFIGS))
@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("fanout", [1, 4, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multicast_matches_sequential_sends(fanout, lanes, fault, seed):
    fabric = _drive(True, fanout=fanout, lanes=lanes, fault=fault, seed=seed)
    sequential = _drive(False, fanout=fanout, lanes=lanes, fault=fault, seed=seed)
    assert fabric == sequential


# ---------------------------------------------------------------------------
# End-to-end equivalence: full consensus runs, byte-identical reports
# ---------------------------------------------------------------------------

E2E_CONFIGS = [
    # (mode, n, lanes, crashes)
    ("kauri", 13, 1, ()),
    ("kauri", 13, 2, ()),
    ("kauri", 21, 1, ((5, 3.0),)),
    ("hotstuff-bls", 13, 1, ()),
]


def _run_cluster(multicast, mode, n, lanes, crashes, seed):
    cluster = Cluster(
        n=n, mode=mode, scenario="national", seed=seed, crashes=crashes,
        uplink_lanes=lanes, observability=True,
    )
    if not multicast:
        cluster.network.multicast = _sequential_multicast(cluster.network)
    cluster.start()
    cluster.run(duration=12.0, max_commits=6)
    report = build_report(cluster, start=0.0, end=cluster.sim.now)
    return cluster, report_json(report)


@pytest.mark.parametrize("mode,n,lanes,crashes", E2E_CONFIGS)
@pytest.mark.parametrize("seed", [0, 3])
def test_end_to_end_runs_are_byte_identical(mode, n, lanes, crashes, seed):
    a, report_a = _run_cluster(True, mode, n, lanes, crashes, seed)
    b, report_b = _run_cluster(False, mode, n, lanes, crashes, seed)
    # The RunReport embeds commit times, throughput, latency percentiles,
    # per-NIC busy fractions and queue high-waters, fault counters and the
    # simulator's own event count -- byte equality here is the whole claim.
    assert report_a == report_b
    assert a.sim.events_processed == b.sim.events_processed
    assert a.sim.now == b.sim.now
    assert a.metrics.committed_blocks == b.metrics.committed_blocks


# ---------------------------------------------------------------------------
# The link-param memo, and purge leaving live waiters alone
# ---------------------------------------------------------------------------

class _PairKeyedNetem:
    """A shaper without ``link_key``: the fabric memoises per (src, dst)."""

    def __init__(self, params):
        self.params = params

    def params_between(self, src, dst):
        return self.params


SLOW = NetworkParams("slow", rtt=0.1, bandwidth_bps=1_000_000.0)
FAST = NetworkParams("fast", rtt=0.002, bandwidth_bps=1e9)


class TestInvalidateLinks:
    """The memo is invalidated by swapping the shaper: the fabric checks
    ``network.netem`` by identity on every send and rebinds."""

    def _warm(self, netem=None):
        sim = Simulator()
        net = Network(sim, HomogeneousNetem(SLOW) if netem is None else netem)
        for node in range(4):
            net.register(node)
        for dst in (1, 2, 3):
            net.send(0, dst, "warm", None, 10)
        sim.run()
        return sim, net

    def test_class_keyed_memo_stays_one_entry(self):
        """A homogeneous shaper has one link class: three warmed pairs
        share a single memo entry (the N=1000 flyweight); a pair-keyed
        shaper holds one per pair."""
        _sim, net = self._warm()
        assert len(net._params_cache) == 1
        _sim, net = self._warm(_PairKeyedNetem(SLOW))
        assert len(net._params_cache) == 3

    @staticmethod
    def _arrival_after_swap(sim, net, new_netem):
        arrivals = []

        def receiver():
            msg = yield from net.endpoint(1).receive("after")
            arrivals.append(sim.now - msg.sent_at)

        spawn(sim, receiver())
        net.netem = new_netem
        net.send(0, 1, "after", None, 1000)
        sim.run()
        return arrivals[0]

    def test_direct_shaper_swap_rebinds_automatically(self):
        """Swapping ``network.netem`` (the client harness does this) must
        reprice traffic: the fabric rebinds on the next send, whether the
        old and new shapers are class-keyed or pair-keyed."""
        # 1064 bytes at 1 Gb/s is ~8.5us; on the stale 1 Mb/s params the
        # serialization alone would be ~8.5ms.
        expected = pytest.approx(0.001 + 1064 * 8 / 1e9)
        for old, new in [
            (HomogeneousNetem(SLOW), HomogeneousNetem(FAST)),
            (_PairKeyedNetem(SLOW), _PairKeyedNetem(FAST)),
            (HomogeneousNetem(SLOW), _PairKeyedNetem(FAST)),
            (_PairKeyedNetem(SLOW), HomogeneousNetem(FAST)),
        ]:
            sim, net = self._warm(old)
            assert self._arrival_after_swap(sim, net, new) == expected
            assert len(net._params_cache) == 1


class TestWaitersWithdrawThemselves:
    """A receive that timed out, or whose task was cancelled, leaves no
    entry behind, so neither ``deliver`` nor ``purge`` has anything to
    prune."""

    def _endpoint(self):
        sim = Simulator()
        net = Network(
            sim,
            HomogeneousNetem(NetworkParams("t", rtt=0.002, bandwidth_bps=1e9)),
        )
        endpoint = net.register(1)
        net.register(0)
        return sim, endpoint

    def test_timed_out_waiter_gone_live_waiter_kept(self):
        sim, endpoint = self._endpoint()
        stale, fresh = ("view", 1, "vote"), ("view", 2, "vote")
        got = []

        def receiver(tag, timeout=None):
            got.append((yield from endpoint.receive(tag, timeout=timeout)))

        spawn(sim, receiver(stale, timeout=0.001))
        spawn(sim, receiver(stale))
        spawn(sim, receiver(fresh))
        sim.run(until=0.0005)  # all three parked
        assert len(endpoint._waiters[stale]) == 2
        sim.run(until=0.002)  # the first receive timed out
        assert got == [TIMEOUT]
        assert len(endpoint._waiters[stale]) == 1

        # Purging the stale prefix leaves the live waiter alone (its task
        # is cancelled separately on view change) ...
        assert endpoint.purge(lambda tag: tag[1] < 2) == 0
        assert len(endpoint._waiters[stale]) == 1
        assert fresh in endpoint._waiters
        # ... and it still is the one a delivery reaches.
        endpoint.deliver(
            Message(src=0, dst=1, tag=stale, payload="late", size=1, sent_at=sim.now)
        )
        sim.run(until=0.003)
        assert [m.payload for m in got[1:]] == ["late"]
        assert stale not in endpoint._waiters
        assert endpoint.queued_messages == 0

    def test_tag_key_gone_after_timeout_or_cancel(self):
        sim, endpoint = self._endpoint()

        def receiver(tag, timeout=None):
            yield from endpoint.receive(tag, timeout=timeout)

        spawn(sim, receiver("timed", timeout=0.001))
        doomed = spawn(sim, receiver("cancelled"))
        sim.run(until=0.0005)
        assert set(endpoint._waiters) == {"timed", "cancelled"}
        doomed.cancel()
        # Withdrawn the moment cancel() returns, before the task even runs.
        assert set(endpoint._waiters) == {"timed"}
        sim.run()
        assert doomed.cancelled
        assert endpoint._waiters == {}
