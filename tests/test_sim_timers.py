"""Unit tests for restartable timers."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, Timer


def test_timer_fires_after_delay():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(3.0)
    sim.run()
    assert fired == [3.0]
    assert timer.fire_count == 1


def test_timer_cancel_prevents_fire():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(3.0)
    sim.schedule(1.0, timer.cancel)
    sim.run()
    assert fired == []
    assert not timer.armed


def test_restart_supersedes_previous_deadline():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(3.0)
    sim.schedule(2.0, timer.start, 5.0)  # push deadline to t=7
    sim.run()
    assert fired == [7.0]
    assert timer.fire_count == 1


def test_timer_reusable_after_fire():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.run()
    timer.start(2.0)
    sim.run()
    assert fired == [1.0, 3.0]
    assert timer.fire_count == 2


def test_deadline_and_remaining():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    assert timer.deadline is None
    assert timer.remaining is None
    timer.start(4.0)
    assert timer.deadline == 4.0
    sim.schedule(1.0, lambda: None)
    sim.run(until=1.0)
    assert timer.remaining == pytest.approx(3.0)
    sim.run()
    assert timer.deadline is None


def test_negative_delay_rejected():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    for delay in (-1.0, float("nan")):
        with pytest.raises(SimulationError):
            timer.start(delay)
    assert not timer.armed


def test_cancel_unarmed_timer_is_noop():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.cancel()
    assert not timer.armed
