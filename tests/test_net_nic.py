"""Unit tests for the NIC serialization model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.nic import Nic
from repro.sim.engine import Simulator
from tests.reference_nic import ListLogNic


# Enqueue on ``nic``; ``on_serialized`` runs when the last bit leaves.
def transmit(nic, size_bytes, bandwidth_bps, on_serialized):
    done = nic.transmit_raw(size_bytes, bandwidth_bps)
    nic.sim.schedule_call_at(done, on_serialized)


def test_single_transmit_takes_size_over_bandwidth():
    sim = Simulator()
    nic = Nic(sim)
    done = []
    # 1250 bytes at 10 kb/s = 1250*8/10000 = 1.0 s
    transmit(nic, 1250, 10_000.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(1.0)]


def test_back_to_back_transmits_serialize_fifo():
    sim = Simulator()
    nic = Nic(sim)
    done = []
    transmit(nic, 1250, 10_000.0, lambda: done.append(("a", sim.now)))
    transmit(nic, 1250, 10_000.0, lambda: done.append(("b", sim.now)))
    transmit(nic, 2500, 10_000.0, lambda: done.append(("c", sim.now)))
    sim.run()
    assert done == [
        ("a", pytest.approx(1.0)),
        ("b", pytest.approx(2.0)),
        ("c", pytest.approx(4.0)),
    ]


def test_sending_time_matches_paper_formula():
    """§4.3: sending time = fanout * block / bandwidth."""
    sim = Simulator()
    nic = Nic(sim)
    fanout, block, bw = 10, 250 * 1024, 25e6  # global scenario, 250 KB
    finished = []
    for _ in range(fanout):
        transmit(nic, block, bw, lambda: finished.append(sim.now))
    sim.run()
    expected = fanout * block * 8 / bw
    assert finished[-1] == pytest.approx(expected)


def test_idle_gap_resets_queue():
    sim = Simulator()
    nic = Nic(sim)
    done = []
    transmit(nic, 1250, 10_000.0, lambda: done.append(sim.now))
    sim.schedule(5.0, transmit, nic, 1250, 10_000.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(1.0), pytest.approx(6.0)]


def test_queueing_delay_accounting():
    sim = Simulator()
    nic = Nic(sim)
    transmit(nic, 1250, 10_000.0, lambda: None)  # finishes t=1
    transmit(nic, 1250, 10_000.0, lambda: None)  # queued 1s, finishes t=2
    sim.run()
    assert nic.total_queueing_delay == pytest.approx(1.0)
    assert nic.total_tx_time == pytest.approx(2.0)
    assert nic.bytes_sent == 2500
    assert nic.messages_sent == 2


def test_backlog_and_busy():
    sim = Simulator()
    nic = Nic(sim)
    transmit(nic, 2500, 10_000.0, lambda: None)  # 2 s of traffic
    assert nic.busy
    assert nic.backlog == pytest.approx(2.0)
    assert nic.max_backlog == pytest.approx(2.0)
    sim.run()
    assert not nic.busy
    assert nic.backlog == 0.0


def test_infinite_bandwidth_is_instant():
    sim = Simulator()
    nic = Nic(sim)
    done = []
    transmit(nic, 10**9, math.inf, lambda: done.append(sim.now))
    sim.run()
    assert done == [0.0]


def test_utilization():
    sim = Simulator()
    nic = Nic(sim)
    transmit(nic, 1250, 10_000.0, lambda: None)  # 1 s busy
    sim.run(until=4.0)
    assert nic.utilization() == pytest.approx(0.25)


def test_invalid_arguments():
    sim = Simulator()
    nic = Nic(sim)
    with pytest.raises(NetworkError):
        transmit(nic, -1, 10_000.0, lambda: None)
    with pytest.raises(NetworkError):
        transmit(nic, 10, 0.0, lambda: None)


# ---------------------------------------------------------------------------
# Windowed accounting: busy fractions and bytes over [start, end)
# ---------------------------------------------------------------------------
def test_busy_in_adjacent_windows_partition():
    sim = Simulator()
    nic = Nic(sim)
    transmit(nic, 1250, 10_000.0, lambda: None)  # busy [0, 1)
    sim.run(until=2.0)
    transmit(nic, 1250, 10_000.0, lambda: None)  # busy [2, 3)
    sim.run(until=5.0)
    total = nic.busy_in(0.0, 5.0)
    assert total == pytest.approx(2.0)
    for cut in (0.5, 1.0, 2.0, 2.5, 3.0, 4.0):
        assert nic.busy_in(0.0, cut) + nic.busy_in(cut, 5.0) == pytest.approx(
            total
        ), cut


def test_windowed_utilization_and_bytes():
    sim = Simulator()
    nic = Nic(sim)
    transmit(nic, 1250, 10_000.0, lambda: None)
    sim.run(until=4.0)
    assert nic.utilization() == pytest.approx(0.25)
    assert nic.utilization(since=0.0, until=1.0) == pytest.approx(1.0)
    # Idle window after the transmit: nothing carries over.
    assert nic.utilization(since=1.0) == pytest.approx(0.0)
    # Bytes attribute to the enqueue time (documented convention).
    assert nic.bytes_in(0.0, 1.0) == 1250
    assert nic.bytes_in(1.0, 4.0) == 0


def test_in_flight_transmit_counts_toward_window():
    sim = Simulator()
    nic = Nic(sim)
    transmit(nic, 12_500, 10_000.0, lambda: None)  # 10 s serialization
    sim.run(until=4.0)
    assert nic.busy_in(0.0, 4.0) == pytest.approx(4.0)
    assert nic.utilization() == pytest.approx(1.0)


def test_queue_depth_high_water_mark():
    sim = Simulator()
    nic = Nic(sim)
    for _ in range(3):
        transmit(nic, 1250, 10_000.0, lambda: None)
    assert nic.max_queue_depth == 3
    sim.run()
    transmit(nic, 1250, 10_000.0, lambda: None)
    sim.run()
    assert nic.max_queue_depth == 3  # high water, not current depth


# ---------------------------------------------------------------------------
# Bad inputs: rejected before any state changes
# ---------------------------------------------------------------------------
NAN = float("nan")


def nic_state(nic):
    return (
        list(nic._lane_busy_until),
        list(nic._inflight_done),
        nic.bytes_in(0.0, 10.0),
        nic.busy_in(0.0, 10.0),
        nic.bytes_sent,
        nic.messages_sent,
        nic.total_queueing_delay,
        nic.total_tx_time,
        nic.max_backlog,
        nic.max_queue_depth,
    )


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("size,bandwidth", [
    (100, NAN), (100, 0.0), (100, -1.0), (NAN, 1e6), (-1, 1e6),
])
def test_bad_transmit_raw_leaves_nic_untouched(lanes, size, bandwidth):
    sim = Simulator()
    nic = Nic(sim, lanes=lanes)
    nic.transmit_raw(1000, 1e6)
    before = nic_state(nic)
    with pytest.raises(NetworkError):
        nic.transmit_raw(size, bandwidth)
    assert nic_state(nic) == before


def test_transmit_with_nan_bandwidth_names_the_bandwidth():
    """The NIC refuses it itself, instead of corrupting its lanes and
    leaving the engine to complain about a NaN completion time."""
    sim = Simulator()
    nic = Nic(sim)
    with pytest.raises(NetworkError, match="bandwidth"):
        transmit(nic, 100, NAN, lambda: None)
    assert sim.pending_events == 0
    assert nic_state(nic) == nic_state(Nic(Simulator()))


# ---------------------------------------------------------------------------
# Packed logs: one entry per enqueue instant, exact against the per-message log
# ---------------------------------------------------------------------------
def test_byte_log_keeps_one_entry_per_enqueue_instant():
    sim = Simulator()
    nic = Nic(sim)
    for _ in range(10):  # a fan-out: ten messages in one instant
        nic.transmit_raw(1000, 1e6)
    nic.transmit_raw(500, 1e6)
    sim.run(until=1.0)
    for _ in range(3):
        nic.transmit_raw(250, 1e6)
    assert list(nic._byte_times) == [0.0, 1.0]
    assert list(nic._byte_totals) == [10_500, 11_250]
    assert nic.bytes_in(0.0, 1.0) == 10_500
    assert nic.bytes_in(1.0, 2.0) == 750


#: Sizes and bandwidths chosen so that serializations chain back to back
#: exactly (coalescing) as well as leave gaps, with zero-size messages and
#: infinitely fast links among them.
SIZES = st.sampled_from([0, 1, 125, 1000, 1250, 3333])
BANDWIDTHS = st.sampled_from([1e4, 1e6, 8e6, 3.3e5, math.inf])
GAPS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.001, 0.0125, 0.1]),
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
)
STEPS = st.lists(
    st.tuples(
        GAPS,
        st.booleans(),  # a same-instant run of all, or the first alone
        SIZES,
        st.lists(BANDWIDTHS, min_size=0, max_size=5),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(
    lanes=st.integers(min_value=1, max_value=3),
    steps=STEPS,
    extra_edges=st.lists(st.floats(min_value=-0.1, max_value=2.0), max_size=4),
)
def test_packed_logs_answer_like_the_per_message_logs(lanes, steps, extra_edges):
    sim = Simulator()
    nic = Nic(sim, lanes=lanes)
    ref = ListLogNic(sim, lanes=lanes)
    for gap, run, size, bandwidths in steps:
        sim.run(until=sim.now + gap)
        if run:
            for bandwidth in bandwidths:
                assert nic.transmit_raw(size, bandwidth) == ref.transmit_raw(
                    size, bandwidth
                )
        elif bandwidths:
            assert nic.transmit_raw(size, bandwidths[0]) == ref.transmit_raw(
                size, bandwidths[0]
            )
    end = sim.now + 1.0
    sim.run(until=end)
    # Edges exactly on enqueue instants and on interval ends, plus a few
    # anywhere, so every window edge case is asked.
    edges = {0.0, end}
    edges.update(t for t, _ in ref._bytes_log)
    for intervals in ref._lane_intervals:
        for s, e in intervals:
            edges.update((s, e))
    edges.update(extra_edges)
    edges = sorted(edges)
    for lo in edges:
        for hi in edges:
            assert nic.bytes_in(lo, hi) == ref.bytes_in(lo, hi), (lo, hi)
            assert nic.busy_in(lo, hi) == ref.busy_in(lo, hi), (lo, hi)
            assert nic.utilization(lo, hi) == ref.utilization(lo, hi), (lo, hi)
    assert nic.utilization() == ref.utilization()
    # The same coalesced intervals, and the per-message log folded by instant.
    assert [
        (list(log.starts), list(log.ends)) for log in nic._lane_logs
    ] == [
        ([s for s, _ in intervals], [e for _, e in intervals])
        for intervals in ref._lane_intervals
    ]
    folded = {}
    for t, total in ref._bytes_log:
        folded[t] = total
    assert list(nic._byte_times) == list(folded)
    assert list(nic._byte_totals) == list(folded.values())
    for attr in (
        "_lane_busy_until", "_inflight_done", "bytes_sent", "messages_sent",
        "total_queueing_delay", "total_tx_time", "max_backlog", "max_queue_depth",
    ):
        assert getattr(nic, attr) == getattr(ref, attr), attr
