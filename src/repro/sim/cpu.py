"""Single-core CPU resource with FIFO queueing.

Each replica owns one :class:`Cpu`. Cryptographic work (signing, verifying,
aggregating) is charged to the CPU via :meth:`Cpu.consume`, so concurrent
pipelined consensus instances on the same node contend for compute exactly
as they would on one core of the paper's testbed machines. Utilization is
tracked so experiments can flag CPU-saturated data points (the paper marks
these with red circles).

Busy time is checkpointed as a sorted list of coalesced ``[start, end)``
intervals, so :meth:`busy_in` -- and therefore :meth:`utilization` over an
arbitrary measurement window -- is exact: a job straddling the window edge
contributes only its in-window part, a job cancelled mid-execution still
contributes the compute it performed before dying, and the job running
right now contributes up to the current instant. Back-to-back jobs merge
into one interval, so a saturated CPU costs O(1) memory however many jobs
it serves.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Deque, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import Hold, Task


class Cpu:
    """FIFO busy-server: one unit of work at a time, queued arrivals.

    Coroutine usage::

        yield from node.cpu.consume(cost_model.bls_verify)
    """

    __slots__ = (
        "sim", "name", "_busy", "_busy_since", "_queue",
        "_interval_starts", "_interval_ends", "busy_time",
        "jobs_completed", "jobs_cancelled", "_created_at",
    )

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self._busy = False
        self._busy_since: Optional[float] = None
        #: ``(task, token)`` of every task waiting for a turn, in arrival
        #: order; an entry whose token is stale belongs to a cancelled task.
        self._queue: Deque[Tuple[Task, int]] = deque()
        #: Coalesced, time-sorted busy intervals; parallel lists so window
        #: queries can bisect the end times directly.
        self._interval_starts: List[float] = []
        self._interval_ends: List[float] = []
        self.busy_time = 0.0
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self._created_at = sim.now

    def consume(self, seconds: float) -> Generator:
        """Occupy the CPU for ``seconds`` of simulated compute time.

        Zero-cost work returns immediately without queueing, so disabled
        cost models add no events. Everything else is one
        :class:`~repro.sim.process.Hold`: the task kernel queues the task
        while the CPU is taken, times the job, and calls :meth:`_release`
        when it completes or its task is cancelled mid-job.
        """
        if seconds < 0:
            raise SimulationError(f"negative CPU time: {seconds}")
        if seconds == 0.0:
            return
        yield Hold(self, seconds)

    def _release(self, completed: bool) -> None:
        """End the running job now and wake every queued task.

        Checkpoints the busy span up to *now*: the full cost on normal
        completion, the partial cost when cancelled mid-job. Wake-ups are
        broadcast (one per live waiter, in queue order) rather than handed
        to the head: a same-instant arrival may win the race and losers
        re-queue, which makes the queue robust to waiters cancelled while
        waiting -- their token no longer matches and they are skipped.
        """
        if completed:
            self.jobs_completed += 1
        else:
            self.jobs_cancelled += 1
        start, end = self._busy_since, self.sim.now
        if end > start:
            self.busy_time += end - start
            ends = self._interval_ends
            # Jobs start in nondecreasing time order; a job starting exactly
            # when its predecessor finished extends that interval in place.
            if ends and start <= ends[-1]:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                self._interval_starts.append(start)
                ends.append(end)
        self._busy = False
        self._busy_since = None
        queue = self._queue
        if queue:
            schedule_now = self.sim.schedule_now
            for task, token in queue:
                if task._wait_token == token:
                    schedule_now(task._step, token, "send", None)
            queue.clear()

    @property
    def queue_length(self) -> int:
        """Number of jobs waiting (excludes the one running)."""
        return len(self._queue)

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
        total = 0.0
        # Skip intervals that finished at or before the window start.
        index = bisect_right(self._interval_ends, start)
        starts, ends = self._interval_starts, self._interval_ends
        for i in range(index, len(ends)):
            s = starts[i]
            if s >= end:
                break
            total += min(ends[i], end) - max(s, start)
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
        return f"Cpu({self.name!r}, busy={self._busy}, queued={len(self._queue)})"
