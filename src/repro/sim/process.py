"""Generator-based simulated processes ("tasks") and their wait requests.

A task is a Python generator that suspends by yielding a *wait request*;
:meth:`Task._step` -- the task kernel -- installs the request, and whatever
completes it schedules ``_step`` again with the value to resume with. There
are four kinds, dispatched on the exact type of the yielded object:

- ``yield Sleep(duration)`` -- resume after ``duration`` simulated seconds.
- ``yield WaitSignal(signal)`` -- resume when the signal fires; evaluates to
  the value the signal was fired with. With ``timeout=d`` it evaluates to
  the sentinel :data:`TIMEOUT` if the signal has not fired within ``d``.
- ``yield Hold(resource, duration)`` -- occupy a busy-server (a
  :class:`~repro.sim.cpu.Cpu`) for ``duration``: queue for a turn while it
  is taken, hold it, release it. Callers write ``yield from
  cpu.consume(cost)``; ``consume`` returns a tuple holding this request
  (empty for zero cost), so no generator frame of its own.
- ``yield MailboxWait(...)`` -- park on a tag of a keyed mailbox until its
  owner hands over an item or the timeout elapses (evaluates to
  :data:`TIMEOUT`). Callers write ``yield from endpoint.receive(tag)``, or
  on hot paths its two steps: ``endpoint.try_receive(tag)`` and, on a
  miss, ``yield endpoint.wait(tag)``.

An exception escaping a task's generator propagates out of
:meth:`~repro.sim.engine.Simulator.run`.

Sub-coroutines compose with plain ``yield from``; their ``return`` value is
the expression value, exactly like real coroutines. This lets the paper's
blocking pseudocode (Algorithms 1-3) transcribe almost verbatim.

A parked wait is identified by ``(task, token)``: the token is the task's
``_wait_token`` at the time the wait was installed, and every ``_step``
(and every :meth:`Task.cancel`) bumps it. A wake-up carrying an older token
is stale and ignored, so racing wake-ups (a signal and its timeout, a
delivery and a cancellation) need no other arbitration, and a waiter is dead
the moment :meth:`Task.cancel` returns.

Relative to writing the same wait with signals and sleeps, the kernel
resumes every task with the same value, in the same order, at the same
simulated instant: a hold is one ``schedule`` per job plus one
``schedule_now`` per *release* that has waiters (the resource's turn event,
which starts the next waiter's job itself -- a queued task's ``_step`` runs
only when its job is over or it is cancelled), a mailbox hand-over is one
``schedule_now``. What it saves is host work per wait -- no per-wait
``Signal``, closure or ``try/finally`` generator frame -- and the one
wake-up per waiter per release the Signal-based CPU fired (see DESIGN.md,
"Wait requests" and "One turn event per release").

Cancellation throws :class:`~repro.errors.TaskCancelled` inside the
generator at its current suspension point.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable, List, Optional, Tuple, Union

from repro.errors import SimulationError, TaskCancelled
from repro.sim.engine import EventHandle, Simulator


class _Timeout:
    """Singleton sentinel returned by timed-out waits."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TIMEOUT"

    def __bool__(self) -> bool:
        return False


TIMEOUT = _Timeout()


class Sleep:
    """Wait request: suspend for a fixed simulated duration."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if not duration >= 0:  # NaN fails too
            raise SimulationError(f"negative sleep: {duration}")
        self.duration = duration


class Signal:
    """One-shot broadcast event carrying an optional value.

    ``fire`` wakes every task parked on it (in wait order) and makes all
    future waits complete immediately. Firing twice raises, preserving
    single-use semantics; use :meth:`fire_if_unfired` for races that are
    benign.
    """

    __slots__ = ("fired", "value", "_waiters")

    def __init__(self) -> None:
        self.fired = False
        self.value: Any = None
        #: ``(task, token)`` pairs parked by the task kernel, in wait order.
        self._waiters: List[Tuple["Task", int]] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise SimulationError("signal fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for task, token in waiters:
            task.sim.schedule_now(task._step, token, "send", value)

    def fire_if_unfired(self, value: Any = None) -> bool:
        """Fire unless already fired; returns whether this call fired it."""
        if self.fired:
            return False
        self.fire(value)
        return True


class WaitSignal:
    """Wait request: suspend until ``signal`` fires or ``timeout`` elapses."""

    __slots__ = ("signal", "timeout")

    def __init__(self, signal: Signal, timeout: Optional[float] = None):
        if timeout is not None and not timeout >= 0:
            raise SimulationError(f"negative timeout: {timeout}")
        self.signal = signal
        self.timeout = timeout


class Hold:
    """Wait request: occupy ``resource`` for ``duration`` simulated seconds.

    ``resource`` is a busy-server exposing ``_busy``, a ``_queue`` deque of
    ``(task, token)`` pairs, ``_acquire(task, token, hold)`` and
    ``_release(completed)`` (see :class:`~repro.sim.cpu.Cpu`). The kernel
    starts the job if the resource is free and queues the task otherwise;
    the resource starts a queued task's job from its turn event. Either way
    the job's timer resumes the task, and the kernel releases -- on
    completion, or with the partial busy span when the holder is cancelled
    mid-job. ``acquired`` tells the two suspended states (queued, holding)
    apart.
    """

    __slots__ = ("resource", "duration", "acquired")

    def __init__(self, resource: Any, duration: float):
        self.resource = resource
        self.duration = duration
        self.acquired = False


class MailboxWait:
    """Wait request: park on ``waiters[tag]`` until the mailbox hands over.

    The request object is its own parked entry: the kernel fills in ``task``
    and ``token`` and appends it to the tag's list (creating the key). The
    owner of ``waiters`` completes the wait by popping the entry (deleting
    an emptied key), setting ``task`` to ``None`` and scheduling
    ``task._step(token, "send", item)``; ``src`` is its sender filter and
    opaque to the kernel. A timed-out or cancelled waiter withdraws its
    entry synchronously, so every parked entry is live.
    """

    __slots__ = ("waiters", "tag", "timeout", "src", "task", "token")

    def __init__(
        self,
        waiters: dict,
        tag: Hashable,
        timeout: Optional[float] = None,
        src: Any = None,
    ):
        if timeout is not None and not timeout >= 0:
            raise SimulationError(f"negative timeout: {timeout}")
        self.waiters = waiters
        self.tag = tag
        self.timeout = timeout
        self.src = src
        self.task: Optional["Task"] = None
        self.token = 0


WaitRequest = Union[Sleep, WaitSignal, Hold, MailboxWait]


class Task:
    """Driver wrapping a generator into a simulated process.

    Created via :func:`spawn` (or ``Task(sim, gen)`` directly). The task
    starts on the next simulator event at the current time, never
    synchronously inside the spawner -- this keeps traces deterministic and
    independent of Python evaluation order.
    """

    __slots__ = (
        "sim",
        "name",
        "done",
        "cancelled",
        "_gen",
        "_pending_timer",
        "_pending_wait",
        "_wait_token",
    )

    def __init__(self, sim: Simulator, gen: Generator, name: str = "task"):
        if not hasattr(gen, "send"):
            raise SimulationError(f"Task requires a generator, got {type(gen)!r}")
        self.sim = sim
        self.name = name
        self.done = False
        self.cancelled = False
        self._gen = gen
        self._pending_timer: Optional[EventHandle] = None
        #: What the task is parked on besides a timer: the ``Signal`` of a
        #: signal wait, or the ``Hold`` / ``MailboxWait`` request itself.
        self._pending_wait: Any = None
        self._wait_token = 0
        sim.schedule_now(self._step, self._wait_token, "send", None)

    # ------------------------------------------------------------------
    def _unpark(self, wait: Any, token: int) -> None:
        """Withdraw the entry this task parked for ``wait`` under ``token``,
        if whoever completes the wait has not popped it already."""
        if type(wait) is MailboxWait:
            if wait.task is not None:
                wait.task = None
                parked = wait.waiters[wait.tag]
                parked.remove(wait)
                if not parked:
                    del wait.waiters[wait.tag]
        elif not wait.fired:
            wait._waiters.remove((self, token))

    def _step(self, token: int, mode: str, payload: Any) -> None:
        """Resume the generator with a value ("send") or exception ("throw").

        One frame per wake-up: the previous wait is cleared, the generator
        resumed and the request it yields installed right here.
        """
        if self.done or token != self._wait_token:
            return  # stale wakeup (race between signal and timeout)
        sim = self.sim
        self._wait_token = token + 1
        # -- clear the wait this wake-up ends.
        timer = self._pending_timer
        if timer is not None:
            timer.cancel()
            self._pending_timer = None
        wait = self._pending_wait
        if wait is not None:
            kind = type(wait)
            if kind is Hold:
                if wait.acquired:
                    # Job over: completed, or cancelled mid-job. Waiters are
                    # woken before the generator runs on, as a ``finally``
                    # around the job would.
                    wait.resource._release(mode == "send")
                # else cancelled while queued: the entry dies with its token.
            elif kind is MailboxWait:
                if wait.task is not None:
                    self._unpark(wait, token)  # timed out
            elif not wait.fired:
                self._unpark(wait, token)  # timed out
            self._pending_wait = None
        # -- resume.
        try:
            if mode == "send":
                request = self._gen.send(payload)
            else:
                request = self._gen.throw(payload)
        except StopIteration:
            self._finish()
            return
        except TaskCancelled:
            self.cancelled = True
            self._finish()
            return
        except BaseException:
            self._finish()
            raise
        # -- install the wait the generator asked for.
        token += 1
        kind = type(request)
        if kind is Hold:
            resource = request.resource
            if resource._busy:
                resource._queue.append((self, token))
            else:
                resource._acquire(self, token, request)
            self._pending_wait = request
        elif kind is MailboxWait:
            request.task = self
            request.token = token
            parked = request.waiters.get(request.tag)
            if parked is None:
                request.waiters[request.tag] = [request]
            else:
                parked.append(request)
            self._pending_wait = request
            if request.timeout is not None:
                self._pending_timer = sim.schedule_timeout(
                    request.timeout, self._step, token, "send", TIMEOUT
                )
        elif kind is Sleep:
            self._pending_timer = sim.schedule(
                request.duration, self._step, token, "send", None
            )
        elif kind is WaitSignal:
            signal = request.signal
            if signal.fired:
                sim.schedule_now(self._step, token, "send", signal.value)
            else:
                signal._waiters.append((self, token))
                self._pending_wait = signal
                if request.timeout is not None:
                    self._pending_timer = sim.schedule_timeout(
                        request.timeout, self._step, token, "send", TIMEOUT
                    )
        else:
            err = SimulationError(f"task {self.name!r} yielded {request!r}")
            sim.schedule_now(self._step, token, "throw", err)

    def _finish(self) -> None:
        self.done = True
        self._gen.close()

    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Cancel the task, throwing :class:`TaskCancelled` at its wait point.

        Idempotent; cancelling a finished task is a no-op. The cancellation
        is delivered as an immediate event, not synchronously -- but the
        task's parked entry is withdrawn right here, so from the moment this
        returns nothing can be handed to it.
        """
        if self.done:
            return
        timer = self._pending_timer
        if timer is not None:
            timer.cancel()
            self._pending_timer = None
        wait = self._pending_wait
        # A Hold stays pending: the resource is released by the cancellation
        # step (where a ``finally`` around the job would run), and a queued
        # entry dies with its token.
        if wait is not None and type(wait) is not Hold:
            self._unpark(wait, self._wait_token)
            self._pending_wait = None
        self._wait_token += 1  # invalidate any in-flight wakeups
        self.sim.schedule_now(
            self._step, self._wait_token, "throw", TaskCancelled(self.name)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"Task({self.name!r}, {state})"


def spawn(sim: Simulator, gen: Generator, name: str = "task") -> Task:
    """Create and start a task from a generator."""
    return Task(sim, gen, name=name)
