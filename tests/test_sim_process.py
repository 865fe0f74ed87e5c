"""Unit tests for generator-based tasks, signals and waits."""

import pytest

from repro.errors import SimulationError, TaskCancelled
from repro.net.network import Endpoint
from repro.sim.engine import Simulator
from repro.sim.process import TIMEOUT, Signal, Sleep, Task, WaitSignal, spawn


def test_sleep_advances_task_clock():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield Sleep(2.5)
        times.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert times == [0.0, 2.5]


def test_nan_durations_rejected():
    """Regression: ``duration < 0`` let NaN through, a wait that never ends
    and never errs."""
    nan = float("nan")
    with pytest.raises(SimulationError):
        Sleep(nan)
    with pytest.raises(SimulationError):
        WaitSignal(Signal(), timeout=nan)
    with pytest.raises(SimulationError):
        Endpoint(Simulator(), 0).wait("tag", timeout=nan)


def test_task_does_not_run_synchronously_at_spawn():
    sim = Simulator()
    ran = []

    def proc():
        ran.append(True)
        yield Sleep(0)

    spawn(sim, proc())
    assert ran == []
    sim.run()
    assert ran == [True]


def test_task_return_value():
    """Returning a value ends the task cleanly at the time it returns;
    the value itself is dropped, as nothing joins a task."""
    sim = Simulator()

    def proc():
        yield Sleep(1.0)
        return 42

    task = spawn(sim, proc())
    sim.run()
    assert task.done and not task.cancelled
    assert sim.now == 1.0


def test_signal_delivers_value():
    sim = Simulator()
    sig = Signal()
    got = []

    def waiter():
        value = yield WaitSignal(sig)
        got.append((sim.now, value))

    spawn(sim, waiter())
    sim.schedule(3.0, sig.fire, "payload")
    sim.run()
    assert got == [(3.0, "payload")]


def test_wait_on_fired_signal_completes_immediately():
    sim = Simulator()
    sig = Signal()
    sig.fire("early")
    got = []

    def waiter():
        got.append((yield WaitSignal(sig)))

    spawn(sim, waiter())
    sim.run()
    assert got == ["early"]
    assert sim.now == 0.0


def test_signal_wakes_multiple_waiters_in_order():
    sim = Simulator()
    sig = Signal()
    got = []

    def waiter(tag):
        yield WaitSignal(sig)
        got.append(tag)

    for tag in "abc":
        spawn(sim, waiter(tag))
    sim.schedule(1.0, sig.fire)
    sim.run()
    assert got == ["a", "b", "c"]


def test_signal_double_fire_raises():
    sig = Signal()
    sig.fire()
    with pytest.raises(Exception):
        sig.fire()
    assert sig.fire_if_unfired() is False


def test_wait_with_timeout_returns_sentinel():
    sim = Simulator()
    sig = Signal()
    got = []

    def waiter():
        value = yield WaitSignal(sig, timeout=2.0)
        got.append((sim.now, value))

    spawn(sim, waiter())
    sim.run()
    assert got == [(2.0, TIMEOUT)]
    assert not TIMEOUT  # falsy sentinel


def test_wait_with_timeout_receives_early_signal():
    sim = Simulator()
    sig = Signal()
    got = []

    def waiter():
        value = yield WaitSignal(sig, timeout=5.0)
        got.append((sim.now, value))

    spawn(sim, waiter())
    sim.schedule(1.0, sig.fire, "fast")
    sim.run()
    assert got == [(1.0, "fast")]
    # the timeout timer must have been cancelled: no event at t=5
    assert sim.now == 1.0


def test_late_signal_after_timeout_is_ignored():
    sim = Simulator()
    sig = Signal()
    got = []

    def waiter():
        got.append((yield WaitSignal(sig, timeout=1.0)))
        yield Sleep(10.0)
        got.append("alive")

    spawn(sim, waiter())
    sim.schedule(5.0, sig.fire, "late")
    sim.run()
    assert got == [TIMEOUT, "alive"]


def test_yield_from_subroutine_returns_value():
    sim = Simulator()
    results = []

    def helper(x):
        yield Sleep(1.0)
        return x * 2

    def proc():
        value = yield from helper(21)
        results.append((sim.now, value))

    spawn(sim, proc())
    sim.run()
    assert results == [(1.0, 42)]


def test_cancel_interrupts_sleep():
    sim = Simulator()
    trace = []

    def proc():
        try:
            yield Sleep(100.0)
            trace.append("unreachable")
        except TaskCancelled:
            trace.append(("cancelled", sim.now))
            raise

    task = spawn(sim, proc())
    sim.schedule(2.0, task.cancel)
    sim.run()
    assert trace == [("cancelled", 2.0)]
    assert task.done and task.cancelled


def test_cancel_before_start():
    sim = Simulator()
    ran = []

    def proc():
        ran.append(True)
        yield Sleep(1.0)

    task = spawn(sim, proc())
    task.cancel()
    sim.run()
    assert ran == []
    assert task.done and task.cancelled


def test_cancel_finished_task_is_noop():
    sim = Simulator()

    def proc():
        yield Sleep(1.0)
        return "ok"

    task = spawn(sim, proc())
    sim.run()
    task.cancel()
    sim.run()
    assert task.done
    assert not task.cancelled


def test_cancelled_waiter_does_not_receive_signal():
    sim = Simulator()
    sig = Signal()
    got = []

    def waiter():
        got.append((yield WaitSignal(sig)))

    task = spawn(sim, waiter())
    sim.schedule(1.0, task.cancel)
    sim.schedule(2.0, sig.fire, "late")
    sim.run()
    assert got == []
    assert task.cancelled


def test_task_exception_strict_mode():
    """An exception escaping a task aborts the run."""
    sim = Simulator()

    def proc():
        yield Sleep(1.0)
        raise RuntimeError("explode")

    spawn(sim, proc())
    with pytest.raises(RuntimeError):
        sim.run()


def test_yielding_garbage_raises_inside_task():
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield "not a wait request"
        except SimulationError as exc:
            caught.append(str(exc))
            raise

    task = spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()
    assert caught == ["task 'task' yielded 'not a wait request'"]
    assert task.done and not task.cancelled


def test_task_requires_generator():
    sim = Simulator()
    with pytest.raises(Exception):
        Task(sim, lambda: None)  # type: ignore[arg-type]
