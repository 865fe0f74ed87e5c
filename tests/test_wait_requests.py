"""The task kernel's native waits (``Hold``, ``MailboxWait``): regression
tests for what they fix, a differential property test against the
Signal-based bodies they replace (``tests/reference_waits.py``) -- same
resumes in the same order at the same instants, in no more events -- and
pinned whole-run fingerprints guarding that outside the goldens."""

from hypothesis import given, settings, strategies as st

from repro import Cluster
from repro.errors import TaskCancelled
from repro.net.message import Message
from repro.net.network import Endpoint
from repro.sim.cpu import Cpu
from repro.sim.engine import Simulator
from repro.sim.process import TIMEOUT, Signal, Sleep, WaitSignal, spawn
from tests.reference_waits import SignalCpu, SignalEndpoint


def _message(tag, src=0, uid=0, at=0.0):
    return Message(src=src, dst=1, tag=tag, payload=uid, size=1, sent_at=at, uid=uid)


# ----------------------------------------------------------------------
# Regressions: a waiter is dead the moment cancel() returns
# ----------------------------------------------------------------------
def _cancel_then_deliver(endpoint_cls):
    """Cancel a parked receiver and deliver to its tag in the same callback,
    then let a second receiver ask for the tag."""
    sim = Simulator()
    endpoint = endpoint_cls(sim, 1)
    got = []

    def receiver(name):
        msg = yield from endpoint.receive("tag")
        got.append((name, msg.payload))

    first = spawn(sim, receiver("first"))
    sim.run()  # parked

    def race():
        first.cancel()
        endpoint.deliver(_message("tag", uid=7))

    sim.schedule(1.0, race)
    sim.run()
    assert first.cancelled
    spawn(sim, receiver("second"))
    sim.run()
    return endpoint, got


def test_cancelled_receiver_never_consumes_a_message():
    endpoint, got = _cancel_then_deliver(Endpoint)
    assert got == [("second", 7)]
    assert endpoint.queued_messages == 0
    assert endpoint._waiters == {}


def test_signal_based_receive_lost_that_message():
    """The defect, pinned on the oracle: the cancelled receiver's entry
    outlived ``cancel()`` and swallowed the delivery."""
    endpoint, got = _cancel_then_deliver(SignalEndpoint)
    assert got == []
    assert endpoint.lost_to_cancelled == 1
    assert endpoint.queued_messages == 0  # gone, not queued


def test_timed_out_or_cancelled_signal_waiter_leaves_no_entry():
    sim = Simulator()
    signal = Signal()
    got = []

    def waiter(timeout):
        got.append((yield WaitSignal(signal, timeout=timeout)))

    spawn(sim, waiter(1.0))
    doomed = spawn(sim, waiter(None))
    spawn(sim, waiter(None))
    sim.run(until=0.5)
    assert len(signal._waiters) == 3
    doomed.cancel()
    assert len(signal._waiters) == 2
    sim.run(until=2.0)
    assert got == [TIMEOUT] and len(signal._waiters) == 1
    signal.fire("go")
    sim.run()
    assert got == [TIMEOUT, "go"]


def test_task_cancelled_while_queued_never_acquires():
    sim = Simulator()
    cpu = Cpu(sim)
    log = []

    def job(name, cost):
        try:
            yield from cpu.consume(cost)
        except TaskCancelled:
            log.append((name, "cancelled", sim.now))
            raise
        log.append((name, "done", sim.now))

    spawn(sim, job("a", 2.0))
    queued = spawn(sim, job("b", 5.0))
    spawn(sim, job("c", 1.0))
    sim.schedule(1.0, queued.cancel)
    sim.run()
    assert log == [("b", "cancelled", 1.0), ("a", "done", 2.0), ("c", "done", 3.0)]
    assert cpu.jobs_completed == 2 and cpu.jobs_cancelled == 0
    assert cpu.busy_time == 3.0
    assert not cpu.busy and cpu.queue_length == 0


def test_task_cancelled_mid_job_records_partial_busy_and_hands_over():
    sim = Simulator()
    cpu = Cpu(sim)
    log = []

    def job(name, cost):
        yield from cpu.consume(cost)
        log.append((name, sim.now))

    running = spawn(sim, job("a", 4.0))
    spawn(sim, job("b", 1.0))
    sim.schedule(1.5, running.cancel)
    sim.run(until=1.5)
    sim.run(until=2.0)
    # The next waiter started at the cancellation instant ...
    assert cpu.busy and cpu.busy_in(0.0, 2.0) == 2.0
    sim.run()
    assert log == [("b", 2.5)]
    # ... and the dead job's 1.5 s of compute were kept.
    assert running.cancelled
    assert cpu.jobs_completed == 1 and cpu.jobs_cancelled == 1
    assert cpu.busy_time == 2.5
    assert cpu.busy_in(0.0, 1.5) == 1.5


def test_a_release_with_k_waiters_costs_one_event():
    """Three jobs queue behind a fourth: each release fires one turn event
    however many wait, and each generator runs exactly twice -- to its
    hold, and past it."""
    sim = Simulator()
    cpu = Cpu(sim)
    resumes = {}

    def job(name):
        resumes[name] = resumes.get(name, 0) + 1
        yield from cpu.consume(1.0)
        resumes[name] += 1

    for name in "abcd":
        spawn(sim, job(name))
    sim.run()
    assert resumes == {"a": 2, "b": 2, "c": 2, "d": 2}
    assert cpu.jobs_completed == 4 and sim.now == 4.0
    # 4 starts + 4 job timers + 3 turns; a wake-up per waiter would be 3+2+1.
    assert sim.events_processed == 11


# ----------------------------------------------------------------------
# Differential: native bodies == Signal-based bodies, resume for resume
# ----------------------------------------------------------------------
#: Every duration and instant is a multiple of 1/8, so sums are exact and
#: same-instant collisions are the norm, not the exception.
GRID = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.25)
POSITIVE = st.integers(min_value=1, max_value=8).map(lambda k: k * 0.25)
TAGS = ("x", "y")
SENDERS = (0, 2, 3)

SLEEP = st.tuples(st.just("sleep"), GRID)
HOLD = st.tuples(st.just("hold"), GRID)  # 0.0: the free, unqueued path


def recv(timeouts):
    return st.tuples(
        st.just("recv"),
        st.sampled_from(TAGS),
        timeouts,
        # sender filter: none, or one sender
        st.one_of(st.none(), st.sampled_from(SENDERS)),
    )


RECV = recv(st.one_of(st.none(), GRID))
RECV_FOREVER = recv(st.none())


def scripts(steps, off_grid_cancels):
    """(per-task step lists, deliveries, cancellations)."""
    cancel_at = POSITIVE.map(lambda t: t + 0.125) if off_grid_cancels else POSITIVE
    return st.tuples(
        st.lists(st.lists(steps, min_size=1, max_size=6), min_size=1, max_size=5),
        st.lists(
            st.tuples(GRID, st.sampled_from(TAGS), st.sampled_from(SENDERS)),
            max_size=10,
        ),
        st.lists(st.tuples(cancel_at, st.integers(min_value=0, max_value=4)), max_size=4),
    )


def play(script, native):
    """Run ``script`` against the native or the Signal-based bodies; return
    everything an observer could tell the two apart by."""
    programs, deliveries, cancellations = script
    sim = Simulator()
    cpu = (Cpu if native else SignalCpu)(sim)
    endpoint = (Endpoint if native else SignalEndpoint)(sim, 1)
    trace = []

    def receive(tag, timeout, sender):
        if sender is None:
            return endpoint.receive(tag, timeout=timeout)
        if native:
            return endpoint.receive(tag, timeout=timeout, src=sender)
        return endpoint.receive(tag, timeout=timeout, match=lambda m: m.src == sender)

    def program(index, steps):
        try:
            for step in steps:
                if step[0] == "sleep":
                    yield Sleep(step[1])
                    value = "slept"
                elif step[0] == "hold":
                    yield from cpu.consume(step[1])
                    value = "held"
                else:
                    msg = yield from receive(*step[1:])
                    value = "timeout" if msg is TIMEOUT else msg.uid
                trace.append((index, sim.now, value))
        except TaskCancelled:
            trace.append((index, sim.now, "cancelled"))
            raise

    tasks = [spawn(sim, program(i, steps)) for i, steps in enumerate(programs)]
    # Cancellations are scheduled before deliveries: at a shared instant the
    # cancel fires first, which is the order the old bodies got wrong.
    for at, index in cancellations:
        if index < len(tasks):
            sim.schedule(at, tasks[index].cancel)
    for uid, (at, tag, src) in enumerate(deliveries, start=1):
        sim.schedule(at, endpoint.deliver, _message(tag, src=src, uid=uid, at=at))
    sim.run()
    return {
        "trace": trace,
        "now": sim.now,
        "events": sim.events_processed,
        "pending": sim.pending_events,
        "finished": [(task.done, task.cancelled) for task in tasks],
        "busy_time": cpu.busy_time,
        "jobs": (cpu.jobs_completed, cpu.jobs_cancelled),
        "intervals": (list(cpu._busy_log.starts), list(cpu._busy_log.ends)),
        "windows": [cpu.busy_in(lo, lo + 1.5) for lo in (0.0, 0.625, 1.25, 3.0, 7.0)],
        "cpu_idle": (cpu.busy, cpu.queue_length),
        "delivered": endpoint.messages_delivered,
        "max_queued": endpoint.max_queued,
        "queued": endpoint.queued_messages,
        "parked_tags": sorted(endpoint._waiters),
    }, endpoint


def assert_same_run(native, reference):
    """Everything but the event count is equal; the native CPU wakes its
    queue with one turn event per release where the oracle broadcasts."""
    assert native["events"] <= reference["events"]
    assert {**native, "events": None} == {**reference, "events": None}


@settings(max_examples=300, deadline=None)
@given(scripts(st.one_of(SLEEP, HOLD), off_grid_cancels=False))
def test_cpu_holds_match_signal_based_consume(script):
    """Several tasks contending for one CPU, cancelled on the very instants
    jobs start and finish: no divergence is permitted."""
    native, _ = play(script, native=True)
    reference, _ = play(script, native=False)
    assert_same_run(native, reference)


@settings(max_examples=400, deadline=None)
@given(scripts(st.one_of(SLEEP, HOLD, RECV, RECV), off_grid_cancels=True))
def test_holds_and_receives_match_signal_based_bodies(script):
    """Holds, receives (timeouts, sender filters, same-instant deliveries)
    and cancellations at instants no delivery shares: no divergence."""
    native, _ = play(script, native=True)
    reference, oracle = play(script, native=False)
    assert oracle.lost_to_cancelled == 0
    assert_same_run(native, reference)


@settings(max_examples=300, deadline=None)
@given(scripts(st.one_of(SLEEP, RECV_FOREVER, RECV_FOREVER), off_grid_cancels=False))
def test_only_divergence_is_the_cancelled_receiver(script):
    """With cancellations on delivery instants the two may differ -- if and
    only if the oracle handed a message to a cancelled receiver. (Receives
    carry no deadline here, so a message can go missing no other way.)"""
    native, _ = play(script, native=True)
    reference, oracle = play(script, native=False)
    received = lambda run: sum(1 for entry in run["trace"] if isinstance(entry[2], int))
    assert native["delivered"] == reference["delivered"] == len(script[1])
    # The native path accounts for every message, the oracle for all but
    # the ones it lost ...
    assert received(native) + native["queued"] == native["delivered"]
    assert (
        received(reference) + reference["queued"]
        == reference["delivered"] - oracle.lost_to_cancelled
    )
    if oracle.lost_to_cancelled == 0:
        assert_same_run(native, reference)
        return
    # ... and up to the first instant a cancellation and a delivery share,
    # nothing differs.
    shared = min(
        at for at, _ in script[2] if any(at == delivery[0] for delivery in script[1])
    )
    before = lambda run: [entry for entry in run["trace"] if entry[1] < shared]
    assert before(native) == before(reference)


# ----------------------------------------------------------------------
# Whole-run fingerprints. Commits, messages and last hash are as recorded
# before the waits went native; the event count was re-recorded once, when
# a release became one turn event (EXPERIMENTS.md has both values).
# ----------------------------------------------------------------------
def _fingerprint(cluster):
    return (
        cluster.metrics.committed_blocks,
        cluster.sim.events_processed,
        cluster.network.messages_sent,
        cluster.metrics.records()[-1].block_hash,
    )


def test_fault_free_run_keeps_its_events():
    cluster = Cluster(n=31, mode="kauri", scenario="global", seed=0)
    cluster.start()
    cluster.run(duration=120.0, max_commits=12)
    assert _fingerprint(cluster) == (12, 15260, 3337, "da5022e99d8dde80")


def test_leader_crash_run_keeps_its_events():
    cluster = Cluster(n=31, mode="kauri", scenario="global", seed=0)
    cluster.crash_at(cluster.policy.leader_of(0), 10.0)
    cluster.start()
    cluster.run(duration=60.0)
    assert _fingerprint(cluster) == (73, 86341, 16765, "36ae1d2406047f31")
