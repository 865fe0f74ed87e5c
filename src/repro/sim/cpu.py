"""Single-core CPU resource: one job at a time, waiters queued in order.

Each replica owns one :class:`Cpu`. Cryptographic work (signing, verifying,
aggregating) is charged to the CPU via :meth:`Cpu.consume`, so concurrent
pipelined consensus instances on the same node contend for compute exactly
as they would on one core of the paper's testbed machines. Utilization is
tracked so experiments can flag CPU-saturated data points (the paper marks
these with red circles).

Busy time is checkpointed in a :class:`BusyLog` of coalesced ``[start,
end)`` intervals, so :meth:`busy_in` -- and therefore :meth:`utilization`
over an arbitrary measurement window -- is exact: a job straddling the
window edge contributes only its in-window part, a job cancelled
mid-execution still contributes the compute it performed before dying, and
the job running right now contributes up to the current instant.
Back-to-back jobs merge into one interval, so a saturated CPU costs O(1)
memory however many jobs it serves. Each NIC lane (``net/nic.py``) keeps
its serialization time in the same :class:`BusyLog`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import Hold, Task


class BusyLog:
    """Coalesced, time-sorted ``[start, end)`` busy intervals of one
    serial resource (a CPU, or one NIC lane), packed as two ``array('d')``
    columns: 16 bytes per interval, no per-interval objects.

    Intervals must be added in nondecreasing start order, which a FIFO
    resource guarantees. One that starts at or before the end of the last
    extends it in place, so back-to-back work costs no new entry.
    """

    __slots__ = ("starts", "ends")

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")

    def add(self, start: float, end: float) -> None:
        ends = self.ends
        if ends and start <= ends[-1]:
            if end > ends[-1]:
                ends[-1] = end
        else:
            self.starts.append(start)
            ends.append(end)

    def busy_in(self, start: float, end: float, total: float = 0.0) -> float:
        """``total`` plus the busy seconds inside ``[start, end)``, for
        ``start < end``. Accumulating into ``total`` lets a multi-lane NIC
        sum all its lanes in one running float, in lane order."""
        starts, ends = self.starts, self.ends
        # Skip intervals that finished at or before the window start.
        for i in range(bisect_right(ends, start), len(ends)):
            s = starts[i]
            if s >= end:
                break
            total += min(ends[i], end) - max(s, start)
        return total


class Cpu:
    """Busy-server: one unit of work at a time, queued arrivals.

    Coroutine usage::

        yield from node.cpu.consume(cost_model.bls_verify)

    Service order is arrival order *among waiters*, not strict FIFO: a free
    CPU goes to whoever asks first, and a release frees it one event before
    the queue is served (:meth:`_turn`). So a task that releases and asks
    again in the same step keeps the CPU, a task whose wake-up was already
    due at the release instant takes it ahead of the queue, and whoever
    queues behind such a barger stands ahead of the waiters the release
    woke. Simulated throughput depends on this (DESIGN.md, "One turn event
    per release"); ``tests/test_sim_cpu.py`` pins it.
    """

    __slots__ = (
        "sim", "name", "_busy", "_busy_since", "_queue", "_busy_log",
        "busy_time", "jobs_completed", "jobs_cancelled", "_created_at",
    )

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self._busy = False
        self._busy_since: Optional[float] = None
        #: ``(task, token)`` of every task waiting for a turn, in arrival
        #: order; an entry whose token is stale belongs to a cancelled task.
        self._queue: Deque[Tuple[Task, int]] = deque()
        #: Finished and cancelled jobs; the running one is ``_busy_since``.
        self._busy_log = BusyLog()
        self.busy_time = 0.0
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self._created_at = sim.now

    def consume(self, seconds: float) -> Tuple[Hold, ...]:
        """Occupy the CPU for ``seconds`` of simulated compute time.

        Returns the wait requests to ``yield from``: none for zero-cost
        work, so disabled cost models add no events, and otherwise one
        :class:`~repro.sim.process.Hold` -- the task kernel queues the task
        while the CPU is taken, times the job, and calls :meth:`_release`
        when it completes or its task is cancelled mid-job. A tuple, not a
        generator: ``yield from`` walks it without a frame of its own. The
        job's timer resumes the task with ``None``, which ``yield from``
        passes on as a plain ``next()`` (a tuple iterator has no ``send``).
        """
        if not seconds >= 0:  # NaN fails too
            raise SimulationError(f"negative or NaN CPU time: {seconds}")
        if seconds == 0.0:
            return ()
        return (Hold(self, seconds),)

    def _acquire(self, task: Task, token: int, hold: Hold) -> None:
        """Start ``hold``'s job now; its timer resumes ``task`` under the
        token the hold was installed with."""
        self._busy = True
        self._busy_since = self.sim.now
        hold.acquired = True
        task._pending_timer = self.sim.schedule(
            hold.duration, task._step, token, "send", None
        )

    def _release(self, completed: bool) -> None:
        """End the running job now and wake the queue with one turn event.

        Checkpoints the busy span up to *now*: the full cost on normal
        completion, the partial cost when cancelled mid-job. The CPU is
        free from here until :meth:`_turn` fires, after every same-instant
        event already scheduled: whoever asks in between gets it.
        """
        if completed:
            self.jobs_completed += 1
        else:
            self.jobs_cancelled += 1
        start, end = self._busy_since, self.sim.now
        if end > start:
            self.busy_time += end - start
            self._busy_log.add(start, end)
        self._busy = False
        self._busy_since = None
        woken = self._queue
        while woken and woken[0][0]._wait_token != woken[0][1]:
            woken.popleft()  # cancelled while waiting: costs no event
        if woken:
            # Detached: whoever arrives before the turn event queues apart.
            self._queue = deque()
            self.sim.schedule_now(self._turn, woken)

    def _turn(self, woken: Deque[Tuple[Task, int]]) -> None:
        """Serve the waiters a release woke.

        If the CPU is still free its first live waiter starts its job;
        everyone else goes back behind whoever queued since the release.
        That is what one wake-up per waiter used to compute -- the first
        to find the CPU free took it, the rest re-queued in order -- in
        one event and, when nobody queued meanwhile, O(1).
        """
        if not self._busy:
            while woken:
                task, token = woken.popleft()
                if task._wait_token == token:  # else cancelled since the release
                    self._acquire(task, token, task._pending_wait)
                    break
        if self._queue:
            self._queue.extend(woken)
        else:
            self._queue = woken

    @property
    def queue_length(self) -> int:
        """Number of live tasks waiting for a turn (excludes the one
        running). A cancelled waiter stops counting when ``cancel()``
        returns, although its entry stays queued until it reaches the head."""
        return sum(1 for task, token in self._queue if task._wait_token == token)

    @property
    def busy(self) -> bool:
        return self._busy

    def busy_in(self, start: float, end: float) -> float:
        """Exact busy seconds inside the half-open window ``[start, end)``.

        Includes completed jobs, the partial work of jobs cancelled
        mid-execution, and the in-progress job up to ``min(end, now)``.
        """
        if end <= start:
            return 0.0
        total = self._busy_log.busy_in(start, end)
        if self._busy_since is not None:
            s = max(self._busy_since, start)
            e = min(self.sim.now, end)
            if e > s:
                total += e - s
        return total

    def utilization(self, since: float = 0.0, until: Optional[float] = None) -> float:
        """Fraction of wall (simulated) time spent computing over the
        half-open window ``[since, until)`` (``until`` defaults to now).

        Exact by construction: the numerator is the checkpointed busy time
        *inside* the window, never lifetime busy time divided by a shorter
        window -- so no clamp is needed (or wanted: a clamp would mask
        exactly that overstatement bug).
        """
        hi = self.sim.now if until is None else until
        lo = max(since, self._created_at)
        elapsed = hi - lo
        if elapsed <= 0:
            return 0.0
        return self.busy_in(lo, hi) / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cpu({self.name!r}, busy={self._busy}, queued={self.queue_length})"
