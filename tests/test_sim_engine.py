"""Unit tests for the discrete-event simulator core."""

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_nested_scheduling_from_callback():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(0.5, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert seen == [("outer", 1.0), ("inner", 1.5)]


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(2.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_nan_times_rejected_by_every_schedule_call():
    """Regression: ``delay < 0`` let NaN through, and a NaN-timed entry
    stalls or reorders the heap without an error."""
    sim = Simulator()
    nan = float("nan")
    for call in (sim.schedule, sim.schedule_at, sim.schedule_call,
                 sim.schedule_call_at, sim.schedule_timeout):
        with pytest.raises(SimulationError):
            call(nan, lambda: None)
    assert sim.pending_events == 0


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, True)
    sim.run()
    assert fired == [True]
    assert sim.now == 5.0


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert sim.pending_events == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_advances_clock_without_events():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_leaves_later_events_pending():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(20.0, fired.append, "late")
    sim.run(until=10.0)
    assert fired == ["early"]
    assert sim.now == 10.0
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["early", "late"]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 1


def test_single_event_runs_until_drained():
    """A run without `until` fires the one pending event and stops with
    the queue empty and the clock at that event; a run on an empty queue
    fires nothing and leaves the clock where it is."""
    sim = Simulator()
    sim.run()
    assert sim.events_processed == 0 and sim.now == 0.0
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 1 and sim.now == 1.0
    assert sim.pending_events == 0
    sim.run()
    assert sim.events_processed == 1 and sim.now == 1.0


def test_strict_mode_raises_callback_errors():
    """A callback's exception aborts the run; the events after it stay
    pending and the simulator can run again."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: 1 / 0)
    sim.schedule(2.0, fired.append, "after")
    with pytest.raises(ZeroDivisionError):
        sim.run()
    assert fired == [] and sim.now == 1.0 and sim.pending_events == 1
    sim.run()
    assert fired == ["after"]


def test_deterministic_rng_from_seed():
    a = [Simulator(seed=42).rng.random() for _ in range(3)]
    b = [Simulator(seed=42).rng.random() for _ in range(3)]
    assert a == b
    assert Simulator(seed=1).rng.random() != Simulator(seed=2).rng.random()


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_event_budget_does_not_jump_the_clock_to_until():
    """A run cut short by a callback's `stop` once its event budget is
    spent leaves the clock at the last event fired, not at `until`, so the
    events left behind are not in the past."""
    sim = Simulator()
    fired = []

    def fire_then_stop(name):
        fired.append(name)
        sim.stop()

    sim.schedule(1.0, fire_then_stop, "f")
    sim.schedule(2.0, fired.append, "g")
    sim.run(until=10.0)
    assert fired == ["f"] and sim.now == 1.0
    sim.run()
    assert fired == ["f", "g"] and sim.now == 2.0
    # With nothing stopping it, `until` is reached as usual.
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_is_not_reentrant():
    sim = Simulator()

    def recurse():
        sim.run()

    sim.schedule(1.0, recurse)
    with pytest.raises(SimulationError):
        sim.run()


# ---------------------------------------------------------------------------
# The merged order of the two stores is exactly (time, seq)
# ---------------------------------------------------------------------------

PRIMITIVES = (
    "schedule", "schedule_at", "schedule_call", "schedule_call_at",
    "schedule_now", "schedule_timeout",
)
#: (what to issue, delay in quarter-second ticks -- so equal timestamps are
#: common and exact --, how many further actions its callback issues when it
#: fires, which earlier handle to cancel afterwards if any).
ACTION = st.tuples(
    st.sampled_from(PRIMITIVES * 2 + ("burst",)),
    st.integers(0, 4),
    st.integers(0, 3),
    st.none() | st.integers(0, 1000),
)
#: (until in ticks from now or None, event budget or None) per `run` call;
#: a callback spending the budget calls `stop`.
CHUNK = st.tuples(st.none() | st.integers(0, 12), st.none() | st.integers(1, 6))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(ACTION, min_size=1, max_size=60), st.integers(1, 8), st.lists(CHUNK, max_size=8))
def test_firing_order_is_time_seq_of_live_entries(actions, upfront, chunks):
    """Random interleavings of all six primitives and cancellations, issued
    before the run and from inside callbacks, run in random `until` chunks
    cut short by `stop` from a callback: the fired sequence is the
    `(time, seq)`-sorted list of the entries that were not cancelled
    before they fired."""
    sim = Simulator()
    script = iter(actions)
    compactions = []
    compact = sim._compact
    sim._compact = lambda: (compactions.append(sim.now), compact())
    # The reference: every entry by (time, issue order), who was cancelled
    # in time, who fired. Issue order is seq order -- each call takes one.
    issued, cancelled, fired, handles, bursts = [], set(), [], [], []
    budget = [None]  # events the current chunk may still fire

    def fire(ident, children):
        assert sim.now == issued[ident][0]
        fired.append(ident)
        if budget[0] is not None:
            budget[0] -= 1
            if budget[0] == 0:
                sim.stop()
        for action in islice(script, children):
            issue(*action)

    def cancel(index):
        ident, handle = handles[index % len(handles)]
        handle.cancel()  # idempotent; a no-op once fired
        if ident not in fired:
            cancelled.add(ident)

    def issue(primitive, ticks, children, cancel_index):
        if primitive == "burst":
            # More than 64 entries, most of them cancelled at once, sized
            # so that tombstones must outnumber the rest: _compact runs.
            bursts.append(sim.now)
            first = len(handles)
            size = 64 + 2 * len(sim._heap)
            for i in range(size):
                issue(("schedule", "schedule_timeout")[i % 2], 1 + i % 4, 0, None)
            for i in range(size):
                if i % 8:
                    cancel(first + i)
            return
        ident = len(issued)
        delay = 0.0 if primitive == "schedule_now" else 0.25 * ticks
        issued.append((sim.now + delay, ident))
        method = getattr(sim, primitive)
        if primitive == "schedule_now":
            handle = method(fire, ident, children)
        elif primitive.endswith("_at"):
            handle = method(sim.now + delay, fire, ident, children)
        else:
            handle = method(delay, fire, ident, children)
        if handle is not None:
            handles.append((ident, handle))
        if cancel_index is not None and handles:
            cancel(cancel_index)

    def check_books():
        live = [entry for entry in issued if entry[1] not in cancelled]
        assert sim.pending_events == len(live) - len(fired)
        assert sim.events_processed == len(fired)
        assert all(time >= sim.now for time, ident in live if ident not in fired)

    for action in islice(script, upfront):
        issue(*action)
    for until_ticks, events in chunks:
        until = None if until_ticks is None else sim.now + 0.25 * until_ticks + 0.125
        before = len(fired)
        budget[0] = events
        sim.run(until=until)
        check_books()
        if events is not None and len(fired) - before == events:
            continue  # stopped on the budget
        assert until is None or sim.now == until
        assert events is None or len(fired) - before < events
    budget[0] = None
    sim.run()
    check_books()
    assert fired == [ident for _, ident in sorted(issued) if ident not in cancelled]
    assert sim.pending_events == 0 and not sim._heap and not sim._now_queue
    assert sim._cancelled_in_heap == 0
    assert len(compactions) >= len(bursts)


# ---------------------------------------------------------------------------
# `schedule_timeout`: the contract of `schedule`, whatever store is behind it
# ---------------------------------------------------------------------------
# Firing at the precise requested time, global FIFO order for same-instant
# events across *all* scheduling primitives, exact `pending_events`
# accounting, and arm/cancel cycles that leave nothing behind. (Some test
# names date from the timer wheel that used to back `schedule_timeout`.)


class TestFiringSemantics:
    def test_fires_at_exact_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_timeout(0.35, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.35]

    def test_same_instant_fifo_across_all_primitives(self):
        """All six primitives at one instant fire in scheduling order,
        regardless of entry kind or backing store."""
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "handle-1")
        sim.schedule_timeout(1.0, order.append, "timeout-1")
        sim.schedule_call(1.0, order.append, "raw-1")
        sim.schedule_call_at(1.0, order.append, "raw-at-1")
        sim.schedule_timeout(1.0, order.append, "timeout-2")
        sim.schedule_at(1.0, order.append, "handle-at-1")
        # A zero-delay continuation scheduled *from* an event at t=1.0 runs
        # after everything already scheduled for t=1.0.
        sim.schedule(1.0, lambda: sim.schedule_now(order.append, "now-1"))
        sim.schedule(1.0, order.append, "handle-2")
        sim.run()
        assert order == [
            "handle-1", "timeout-1", "raw-1", "raw-at-1", "timeout-2",
            "handle-at-1", "handle-2", "now-1",
        ]

    def test_timeout_before_later_heap_event(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule_timeout(1.0, order.append, "timeout")
        sim.run()
        assert order == ["timeout", "late"]

    def test_long_delay_cascades_and_fires_once(self):
        """A deadline far beyond many nearer events still fires exactly
        once, at exactly its time."""
        sim = Simulator()
        fired = []
        sim.schedule_timeout(100.0, lambda: fired.append(sim.now))
        def tick():
            if sim.now < 200.0:
                sim.schedule(7.0, tick)
        tick()
        sim.run()
        assert fired == [100.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_timeout(-0.1, lambda: None)

    def test_run_until_then_resume(self):
        """Timeouts pending past an `until` checkpoint survive into later runs."""
        sim = Simulator()
        fired = []
        sim.schedule_timeout(5.0, lambda: fired.append(sim.now))
        sim.run(until=1.0)
        assert fired == [] and sim.now == 1.0
        assert sim.pending_events == 1
        sim.run()
        assert fired == [5.0]


class TestCancellation:
    def test_cancel_while_parked_is_wheel_removal(self):
        """Cancelling before the deadline: the handle is dead and no longer
        pending the moment `cancel()` returns, and never fires."""
        sim = Simulator()
        handle = sim.schedule_timeout(10.0, lambda: pytest.fail("fired"))
        assert sim.pending_events == 1
        handle.cancel()
        assert handle.cancelled and not handle.fired
        assert sim.pending_events == 0
        sim.run()
        assert sim.events_processed == 0 and not sim._heap

    def test_cancel_idempotent_and_postfire_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_timeout(0.5, lambda: fired.append(True))
        sim.run()
        assert fired == [True] and handle.fired
        handle.cancel()  # no-op
        assert not handle.cancelled
        gone = sim.schedule_timeout(1.0, lambda: None)
        gone.cancel()
        gone.cancel()  # idempotent
        assert sim.pending_events == 0

    def test_restart_heavy_pattern_leaves_no_debris(self):
        """The pacemaker pattern: thousands of arm/cancel cycles leave the
        heap, now-queue and pending counter all empty after the run, and
        the cancelled entries are popped as their time passes instead of
        piling up during it."""
        sim = Simulator()

        def cycle(remaining):
            handle = sim.schedule_timeout(0.35, lambda: pytest.fail("stalled"))
            def progress():
                handle.cancel()
                assert len(sim._heap) < 64
                if remaining:
                    cycle(remaining - 1)
            sim.schedule(0.01, progress)

        cycle(2000)
        sim.run()
        assert sim.pending_events == 0
        assert not sim._heap and not sim._now_queue


class TestAccounting:
    def test_events_processed_counts_wheel_fires(self):
        sim = Simulator()
        sim.schedule_timeout(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        sim.schedule_call(0.3, lambda: None)
        sim.run()
        assert sim.events_processed == 3
