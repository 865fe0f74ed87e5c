"""`schedule_timeout` contract tests.

The contract is that of `schedule`, whatever store is behind it: firing at
the precise requested time, global FIFO order for same-instant events across
*all* scheduling primitives, exact `pending_events` accounting, and
arm/cancel cycles that leave nothing behind. (File and test names date from
the timer wheel that used to back `schedule_timeout`; they are kept so the
test ids stay stable.)
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


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

    def test_max_events_budget_spans_stores(self):
        sim = Simulator()
        order = []
        sim.schedule_timeout(0.1, order.append, "a")
        sim.schedule(0.2, order.append, "b")
        sim.schedule_call(0.3, order.append, "c")
        sim.run(max_events=2)
        assert order == ["a", "b"]
        assert sim.pending_events == 1
