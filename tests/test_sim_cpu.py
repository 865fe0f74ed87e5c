"""Unit tests for the CPU resource: serialisation, the service order
(arrival order among waiters, not strict FIFO), cancellation, accounting."""

import pytest

from repro.errors import SimulationError, TaskCancelled
from repro.sim import Cpu, Simulator, Sleep
from repro.sim.process import spawn


def run_jobs(sim, cpu, jobs):
    """Spawn one task per (delay, cost, tag); return completion log."""
    log = []

    def job(delay, cost, tag):
        yield Sleep(delay)
        yield from cpu.consume(cost)
        log.append((tag, sim.now))

    for delay, cost, tag in jobs:
        spawn(sim, job(delay, cost, tag))
    return log


def test_single_job_takes_its_cost():
    sim = Simulator()
    cpu = Cpu(sim)
    log = run_jobs(sim, cpu, [(0.0, 2.0, "a")])
    sim.run()
    assert log == [("a", 2.0)]


def test_concurrent_jobs_serialize_fifo():
    sim = Simulator()
    cpu = Cpu(sim)
    log = run_jobs(sim, cpu, [(0.0, 2.0, "a"), (0.0, 3.0, "b"), (0.0, 1.0, "c")])
    sim.run()
    assert log == [("a", 2.0), ("b", 5.0), ("c", 6.0)]


def test_idle_gap_then_new_job():
    sim = Simulator()
    cpu = Cpu(sim)
    log = run_jobs(sim, cpu, [(0.0, 1.0, "a"), (10.0, 1.0, "b")])
    sim.run()
    assert log == [("a", 1.0), ("b", 11.0)]


def test_arrival_mid_job_queues():
    sim = Simulator()
    cpu = Cpu(sim)
    log = run_jobs(sim, cpu, [(0.0, 5.0, "long"), (2.0, 1.0, "late")])
    sim.run()
    assert log == [("long", 5.0), ("late", 6.0)]


def test_zero_cost_is_free_and_unqueued():
    sim = Simulator()
    cpu = Cpu(sim)
    log = run_jobs(sim, cpu, [(0.0, 10.0, "busy"), (1.0, 0.0, "free")])
    sim.run()
    assert ("free", 1.0) in log


def test_negative_cost_rejected():
    for cost in (-1.0, float("nan")):
        sim = Simulator()
        cpu = Cpu(sim)

        def bad():
            yield from cpu.consume(cost)

        spawn(sim, bad())
        with pytest.raises(SimulationError):
            sim.run()
        assert not cpu.busy and cpu.jobs_completed == 0


def test_busy_time_and_utilization():
    sim = Simulator()
    cpu = Cpu(sim)
    run_jobs(sim, cpu, [(0.0, 2.0, "a"), (0.0, 2.0, "b")])
    sim.run(until=8.0)
    assert cpu.busy_time == pytest.approx(4.0)
    assert cpu.utilization() == pytest.approx(0.5)
    assert cpu.jobs_completed == 2


def test_queue_length_observable():
    sim = Simulator()
    cpu = Cpu(sim)
    run_jobs(sim, cpu, [(0.0, 5.0, "a"), (1.0, 5.0, "b"), (1.0, 5.0, "c")])
    sim.run(until=2.0)
    assert cpu.busy
    assert cpu.queue_length == 2
    sim.run()
    assert not cpu.busy
    assert cpu.queue_length == 0


def test_queue_length_counts_live_waiters_only():
    """Regression: a waiter cancelled while queued kept counting until the
    next release, because its entry stays queued until it reaches the head."""
    sim = Simulator()
    cpu = Cpu(sim)

    def job():
        yield from cpu.consume(1.0)

    tasks = [spawn(sim, job()) for _ in range(3)]  # one runs, two queue
    sim.schedule(0.5, tasks[1].cancel)
    sim.run(until=0.25)
    assert cpu.queue_length == 2
    sim.run(until=0.6)
    assert tasks[1].done and tasks[1].cancelled
    assert cpu.queue_length == 1
    sim.run()
    assert sim.now == 2.0 and cpu.jobs_completed == 2
    assert not cpu.busy and cpu.queue_length == 0


# ---------------------------------------------------------------------------
# Service order. A release frees the CPU one event before the queue is
# served, so it is *not* strict FIFO; simulated throughput depends on these
# three cases (DESIGN.md, "One turn event per release"), each pinned here as
# a completion order so nobody simplifies them away.
# ---------------------------------------------------------------------------
def run_scripts(sim, cpu, scripts):
    """One task per (tag, steps), started in that order; a step sleeps or
    computes for some seconds. Returns the log of (tag, job completion)."""
    log = []

    def script(tag, steps):
        for what, seconds in steps:
            if what == "sleep":
                yield Sleep(seconds)
            else:
                yield from cpu.consume(seconds)
                log.append((tag, sim.now))

    for tag, steps in scripts:
        spawn(sim, script(tag, steps))
    return log


WAITERS = [
    ("w1", [("sleep", 0.5), ("cpu", 1.0)]),
    ("w2", [("sleep", 0.5), ("cpu", 1.0)]),
]


def test_back_to_back_consumes_keep_the_cpu_ahead_of_the_queue():
    sim = Simulator()
    cpu = Cpu(sim)
    # The second job is asked for in the very step that releases the first.
    log = run_scripts(sim, cpu, [("twice", [("cpu", 1.0), ("cpu", 1.0)])] + WAITERS)
    sim.run()
    assert log == [("twice", 1.0), ("twice", 2.0), ("w1", 3.0), ("w2", 4.0)]


def test_wakeup_due_at_the_release_instant_takes_the_cpu_ahead_of_the_woken():
    sim = Simulator()
    cpu = Cpu(sim)
    # The sleep ends exactly when the holder's job does and was scheduled
    # after it, so its wake-up fires between the release and the turn event.
    log = run_scripts(
        sim,
        cpu,
        [("holder", [("cpu", 2.0)]), ("barger", [("sleep", 2.0), ("cpu", 1.0)])]
        + WAITERS,
    )
    sim.run()
    assert log == [("holder", 2.0), ("barger", 3.0), ("w1", 4.0), ("w2", 5.0)]


def test_task_queueing_during_a_barge_lands_ahead_of_the_requeued_waiters():
    sim = Simulator()
    cpu = Cpu(sim)
    # Two such wake-ups: the first takes the free CPU, the second queues --
    # and the turn event puts w1 and w2 back *behind* it.
    log = run_scripts(
        sim,
        cpu,
        [
            ("holder", [("cpu", 2.0)]),
            ("barger", [("sleep", 2.0), ("cpu", 1.0)]),
            ("tailgater", [("sleep", 2.0), ("cpu", 1.0)]),
        ]
        + WAITERS,
    )
    sim.run()
    assert log == [
        ("holder", 2.0), ("barger", 3.0), ("tailgater", 4.0), ("w1", 5.0), ("w2", 6.0),
    ]


def test_cancelled_queued_waiter_does_not_stall_cpu():
    sim = Simulator()
    cpu = Cpu(sim)
    log = []

    def job(delay, cost, tag):
        yield Sleep(delay)
        yield from cpu.consume(cost)
        log.append((tag, sim.now))

    spawn(sim, job(0.0, 5.0, "first"))
    victim = spawn(sim, job(1.0, 5.0, "victim"))
    spawn(sim, job(2.0, 1.0, "survivor"))
    sim.schedule(3.0, victim.cancel)
    sim.run()
    assert ("first", 5.0) in log
    assert ("survivor", 6.0) in log
    assert all(tag != "victim" for tag, _ in log)


def test_cancelled_running_job_releases_cpu():
    sim = Simulator()
    cpu = Cpu(sim)
    log = []

    def job(delay, cost, tag):
        yield Sleep(delay)
        try:
            yield from cpu.consume(cost)
            log.append((tag, sim.now))
        except TaskCancelled:
            raise

    runner = spawn(sim, job(0.0, 100.0, "runner"))
    spawn(sim, job(1.0, 1.0, "next"))
    sim.schedule(2.0, runner.cancel)
    sim.run()
    assert log == [("next", 3.0)]
    assert not cpu.busy


# ---------------------------------------------------------------------------
# Windowed accounting: utilization over an arbitrary [start, end) window
# ---------------------------------------------------------------------------
def test_windowed_utilization_is_windowed_not_lifetime():
    """Regression: utilization(since) used to divide *lifetime* busy time by
    the windowed elapsed time, then hide the >1 results behind a clamp."""
    sim = Simulator()
    cpu = Cpu(sim)
    run_jobs(sim, cpu, [(0.0, 4.0, "early")])  # busy over [0, 4)
    sim.run(until=8.0)
    # Whole run: 4 busy of 8.
    assert cpu.utilization() == pytest.approx(0.5)
    # Idle tail [4, 8): no busy time may leak in from the earlier job.
    assert cpu.utilization(since=4.0) == pytest.approx(0.0)
    # Window straddling the job's end: 2 busy of 4.
    assert cpu.utilization(since=2.0, until=6.0) == pytest.approx(0.5)
    # Exact, so never over 1 -- no clamp required.
    assert cpu.utilization(since=0.0, until=4.0) == pytest.approx(1.0)


def test_adjacent_windows_partition_busy_time():
    """busy_in over adjacent half-open windows sums to the whole: no
    boundary double-count, no gap, even when a cut lands mid-job."""
    sim = Simulator()
    cpu = Cpu(sim)
    run_jobs(sim, cpu, [(0.0, 2.0, "a"), (3.0, 2.0, "b"), (6.5, 1.0, "c")])
    sim.run(until=10.0)
    total = cpu.busy_in(0.0, 10.0)
    assert total == pytest.approx(5.0)
    for cut in (1.0, 2.0, 3.0, 4.0, 6.5, 7.0, 7.5, 9.9):
        assert cpu.busy_in(0.0, cut) + cpu.busy_in(cut, 10.0) == pytest.approx(
            total
        ), cut


def test_in_progress_job_counts_toward_window():
    sim = Simulator()
    cpu = Cpu(sim)
    run_jobs(sim, cpu, [(0.0, 10.0, "long")])
    sim.run(until=4.0)  # job still running
    assert cpu.busy_in(0.0, 4.0) == pytest.approx(4.0)
    assert cpu.utilization() == pytest.approx(1.0)
    assert cpu.utilization(since=1.0, until=3.0) == pytest.approx(1.0)


def test_cancelled_job_partial_busy_is_accounted():
    """A cancelled job's CPU time up to the cancel is real busy time; the
    job itself counts as cancelled, not completed."""
    sim = Simulator()
    cpu = Cpu(sim)

    def job():
        yield from cpu.consume(100.0)

    task = spawn(sim, job())
    sim.schedule(3.0, task.cancel)
    sim.run(until=10.0)
    assert cpu.jobs_completed == 0
    assert cpu.jobs_cancelled == 1
    assert cpu.busy_in(0.0, 10.0) == pytest.approx(3.0)
    assert cpu.utilization() == pytest.approx(0.3)
    # The idle tail after the cancel stays idle.
    assert cpu.utilization(since=3.0) == pytest.approx(0.0)


def test_saturated_cpu_memory_is_bounded_by_coalescing():
    """Back-to-back jobs coalesce into one busy interval."""
    sim = Simulator()
    cpu = Cpu(sim)
    run_jobs(sim, cpu, [(0.0, 1.0, i) for i in range(50)])
    sim.run()
    assert len(cpu._busy_log.starts) == 1
    assert cpu.busy_in(0.0, 50.0) == pytest.approx(50.0)
