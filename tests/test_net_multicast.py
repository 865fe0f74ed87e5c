"""Multicast equivalence: the batched fan-out is the sequential loop, bit
for bit.

`Network.multicast` promises to be indistinguishable from
`[send(src, dst, ...) for dst in dsts]` in every simulated observable:
delivery times and ordering, NIC lane busy intervals and counters, fault
decisions, observer event streams, and the full RunReport. These are
property tests over seeds, fanouts, lanes > 1 and crash/omission fault
configurations; the sequential reference is that loop, written here and
put in `multicast`'s place on the one network instance under test, so it
runs through the very same call sites.

Also covers the two cache-hygiene satellites on the fabric:
`Network.invalidate_links` (reconfiguration swaps the shaper) and
`Endpoint.purge` pruning dead waiters.
"""

import pytest

from repro import Cluster
from repro.config import NetworkParams
from repro.net.netem import HomogeneousNetem
from repro.net.message import Message
from repro.net.network import Network
from repro.obs.report import build_report, report_json
from repro.sim.engine import Simulator
from repro.sim.process import TIMEOUT, spawn
from repro.topology.reconfig import swap_scenario

# ---------------------------------------------------------------------------
# Fabric-level equivalence
# ---------------------------------------------------------------------------

FAULT_CONFIGS = {
    "none": lambda faults: None,
    "crash-src": lambda faults: faults.crash_at(0, 0.004),
    "crash-dst": lambda faults: faults.crash_at(3, 0.003),
    "omission": lambda faults: (faults.omit_edge(0, 2), faults.omit_edge(1, 4)),
}


def _sequential_multicast(net):
    """The reference `Network.multicast` promises to equal."""
    def multicast(src, dsts, tag, payload, size):
        return [net.send(src, dst, tag, payload, size) for dst in dsts]
    return multicast


def _drive(batched, *, fanout, lanes, fault, seed):
    """One deterministic traffic pattern; returns comparable state."""
    sim = Simulator(seed=seed)
    params = NetworkParams(name="t", rtt=0.004, bandwidth_bps=25_000_000.0)
    net = Network(sim, HomogeneousNetem(params), uplink_lanes=lanes)
    if not batched:
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
            # Overlapping fan-outs from two sources, so batches queue
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
    batched = _drive(True, fanout=fanout, lanes=lanes, fault=fault, seed=seed)
    sequential = _drive(False, fanout=fanout, lanes=lanes, fault=fault, seed=seed)
    assert batched == sequential


def test_self_send_batches_fall_back(self=None):
    """A destination list containing the source takes the sequential path
    (self-sends deliver synchronously) and still delivers everything."""
    sim = Simulator()
    net = Network(sim, HomogeneousNetem(NetworkParams("t", rtt=0.002, bandwidth_bps=1e9)))
    for node in range(4):
        net.register(node)
    msgs = net.multicast(0, (1, 0, 2), "t", "x", 10)
    sim.run()
    assert [m.dst for m in msgs] == [1, 0, 2]
    assert net.messages_delivered == 3
    assert net.endpoints[0].messages_delivered == 1


def test_empty_destination_list_is_noop():
    sim = Simulator()
    net = Network(sim, HomogeneousNetem(NetworkParams("t", rtt=0.002, bandwidth_bps=1e9)))
    net.register(0)
    assert net.multicast(0, (), "t", "x", 10) == []
    assert net.messages_sent == 0 and sim.pending_events == 0


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


def _run_cluster(batched, mode, n, lanes, crashes, seed):
    cluster = Cluster(
        n=n, mode=mode, scenario="national", seed=seed, crashes=crashes,
        uplink_lanes=lanes, observability=True,
    )
    if not batched:
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
# Satellites: link-param invalidation and purge pruning dead waiters
# ---------------------------------------------------------------------------

class _PairKeyedNetem:
    """A shaper without ``link_key``: the fabric memoises per (src, dst)."""

    def __init__(self, params):
        self.params = params

    def params_between(self, src, dst):
        return self.params


class TestInvalidateLinks:
    def _warm(self, netem=None):
        sim = Simulator()
        if netem is None:
            netem = HomogeneousNetem(
                NetworkParams("slow", rtt=0.1, bandwidth_bps=1_000_000.0)
            )
        net = Network(sim, netem)
        for node in range(4):
            net.register(node)
        for dst in (1, 2, 3):
            net.send(0, dst, "warm", None, 10)
        sim.run()
        return sim, net

    def test_class_keyed_memo_stays_one_entry(self):
        """A homogeneous shaper has one link class: three warmed pairs
        share a single memo entry (the N=1000 flyweight)."""
        _sim, net = self._warm()
        assert len(net._params_cache) == 1
        assert net.invalidate_links() == 1
        assert not net._params_cache

    def test_filtered_eviction_on_class_keys_clears_conservatively(self):
        """Class keys cannot be matched back to pairs, so a filtered
        eviction drops the whole memo rather than risk a stale entry."""
        _sim, net = self._warm()
        assert net.invalidate_links(dst=2) == 1
        assert not net._params_cache

    def test_filtered_eviction_on_pair_keys(self):
        _sim, net = self._warm(
            _PairKeyedNetem(
                NetworkParams("slow", rtt=0.1, bandwidth_bps=1_000_000.0)
            )
        )
        assert len(net._params_cache) == 3
        assert net.invalidate_links(dst=2) == 1
        assert (0, 2) not in net._params_cache
        assert net.invalidate_links(src=0) == 2
        assert net.invalidate_links(src=0) == 0

    def test_swap_scenario_reprices_links(self):
        """After swap_scenario, traffic is priced on the new shaper -- the
        stale-cache bug this satellite exists to prevent."""
        sim, net = self._warm()
        arrivals = []

        def receiver():
            msg = yield from net.endpoint(1).receive("after")
            arrivals.append(sim.now - msg.sent_at)

        spawn(sim, receiver())
        evicted = swap_scenario(
            net, HomogeneousNetem(NetworkParams("fast", rtt=0.002, bandwidth_bps=1e9))
        )
        assert evicted == 1
        net.send(0, 1, "after", None, 1000)
        sim.run()
        # 1064 bytes at 1 Gb/s is ~8.5us; on the stale 1 Mb/s params the
        # serialization alone would be ~8.5ms.
        assert arrivals[0] == pytest.approx(0.001 + 1064 * 8 / 1e9)

    def test_direct_shaper_swap_rebinds_automatically(self):
        """Swapping ``network.netem`` without calling invalidate_links
        (the client harness does this) must still reprice traffic: the
        fabric rebinds on the next send."""
        sim, net = self._warm()
        arrivals = []

        def receiver():
            msg = yield from net.endpoint(1).receive("after")
            arrivals.append(sim.now - msg.sent_at)

        spawn(sim, receiver())
        net.netem = HomogeneousNetem(
            NetworkParams("fast", rtt=0.002, bandwidth_bps=1e9)
        )
        net.send(0, 1, "after", None, 1000)
        sim.run()
        assert arrivals[0] == pytest.approx(0.001 + 1064 * 8 / 1e9)


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
