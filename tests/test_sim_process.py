"""Unit tests for generator-based tasks, signals and waits."""

import pytest

from repro.errors import SimulationError, TaskCancelled
from repro.net.network import Endpoint
from repro.sim.engine import Simulator
from repro.sim.process import TIMEOUT, Signal, Sleep, Task, WaitSignal, spawn, wait_all


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
    sim = Simulator()

    def proc():
        yield Sleep(1.0)
        return 42

    task = spawn(sim, proc())
    sim.run()
    assert task.done
    assert task.result == 42


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


def test_join_task_returns_its_result():
    sim = Simulator()
    results = []

    def worker():
        yield Sleep(3.0)
        return "done"

    def joiner(task):
        value = yield task
        results.append((sim.now, value))

    worker_task = spawn(sim, worker())
    spawn(sim, joiner(worker_task))
    sim.run()
    assert results == [(3.0, "done")]


def test_join_finished_task_completes_immediately():
    sim = Simulator()
    results = []

    def worker():
        yield Sleep(1.0)
        return 7

    def joiner(task):
        yield Sleep(5.0)
        results.append((yield task))

    worker_task = spawn(sim, worker())
    spawn(sim, joiner(worker_task))
    sim.run()
    assert results == [7]


def test_join_propagates_exception():
    sim = Simulator(strict=False)
    caught = []

    def worker():
        yield Sleep(1.0)
        raise ValueError("boom")

    def joiner(task):
        try:
            yield task
        except ValueError as exc:
            caught.append(str(exc))

    worker_task = spawn(sim, worker())
    spawn(sim, joiner(worker_task))
    sim.run()
    assert caught == ["boom"]


def test_wait_all_helper():
    sim = Simulator()
    results = []

    def worker(delay, value):
        yield Sleep(delay)
        return value

    def collector(tasks):
        values = yield from wait_all(tasks)
        results.append((sim.now, values))

    tasks = [spawn(sim, worker(3.0, "a")), spawn(sim, worker(1.0, "b"))]
    spawn(sim, collector(tasks))
    sim.run()
    assert results == [(3.0, ["a", "b"])]


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
    assert task.result == "ok"
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
    sim = Simulator(strict=True)

    def proc():
        yield Sleep(1.0)
        raise RuntimeError("explode")

    spawn(sim, proc())
    with pytest.raises(RuntimeError):
        sim.run()


def test_task_exception_lenient_mode_recorded():
    sim = Simulator(strict=False)

    def proc():
        yield Sleep(1.0)
        raise RuntimeError("explode")

    task = spawn(sim, proc())
    sim.run()
    assert isinstance(task.exception, RuntimeError)
    assert any(isinstance(f, RuntimeError) for f in sim.failures)


def test_yielding_garbage_raises_inside_task():
    sim = Simulator(strict=False)

    def proc():
        yield "not a wait request"

    task = spawn(sim, proc())
    sim.run()
    assert task.exception is not None


def test_done_signal_fires_with_result():
    sim = Simulator()
    seen = []

    def proc():
        yield Sleep(1.0)
        return "finished"

    task = spawn(sim, proc())
    task.done_signal.add_waiter(seen.append)
    sim.run()
    assert seen == ["finished"]


def test_task_requires_generator():
    sim = Simulator()
    with pytest.raises(Exception):
        Task(sim, lambda: None)  # type: ignore[arg-type]
