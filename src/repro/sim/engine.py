"""Event-heap simulator core.

The :class:`Simulator` owns a virtual clock and two event stores that
together hold every scheduled callback. Everything else in the library
(network links, CPUs, protocol state machines) is built on top of the
``schedule*`` family.

The simulator is single-threaded and deterministic: events scheduled for
the same instant fire in scheduling order (FIFO), enforced by a global
sequence counter, so the firing order is exactly ``(time, seq)``.
:meth:`Simulator.run` holds the only loop that selects and fires:

- **Heap** -- every timed event, as a plain tuple: ``(time, seq, handle)``
  for cancellable ones (``schedule``, ``schedule_at``, ``schedule_timeout``),
  handle-free ``(time, seq, fn, args)`` for fire-and-forget callbacks
  (``schedule_call``, ``schedule_call_at``). ``seq`` is unique, so ``heapq``
  never compares beyond it. Cancellation is lazy: the entry stays as a
  tombstone that is skipped when popped, and the heap is compacted when
  tombstones outnumber live entries.
- **Now-queue** -- a FIFO for :meth:`Simulator.schedule_now`: zero-delay,
  never-cancelled continuations (task wakeups, signal deliveries), appended
  in ``(time, seq)`` order by construction, so a deque's O(1) replaces
  O(log n) heap traffic (its ablation: DESIGN.md, "Event stores").
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.errors import SimulationError


class EventHandle:
    """Handle for a scheduled callback; supports O(1) cancellation.

    Cancellation is lazy: the heap entry stays in place and is skipped when
    popped. ``cancelled`` and ``fired`` are exposed for introspection. The
    owning simulator is notified on cancellation so it can keep its live
    pending-event counter exact and compact the heap when cancelled entries
    dominate it.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        sim: "Simulator",
    ):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., None]] = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running; idempotent, no-op if fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self.fn = None  # break reference cycles early
        self.args = ()
        self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`. All stochastic
        behaviour in the library draws from :attr:`rng`, so a seed fully
        determines a run.

    An exception escaping a task or callback aborts :meth:`run` at once.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        #: (time, seq, handle) or handle-free (time, seq, fn, args) tuples.
        self._heap: List[tuple] = []
        #: Zero-delay raw entries (time, seq, fn, args), FIFO == (time, seq).
        self._now_queue: Deque[tuple] = deque()
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._pending = 0  # live (non-cancelled, non-fired) events
        self._cancelled_in_heap = 0  # lazily-cancelled entries awaiting pop

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # written so that NaN fails too
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # Inlined schedule_at: this is the hottest allocation site in a run.
        time = self.now + delay
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, args, sim=self)
        heapq.heappush(self._heap, (time, self._seq, handle))
        self._pending += 1
        return handle

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute simulated ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, args, sim=self)
        heapq.heappush(self._heap, (time, self._seq, handle))
        self._pending += 1
        return handle

    def schedule_call(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Handle-free :meth:`schedule`: no cancellation, no ``EventHandle``.

        For fire-and-forget callbacks on hot paths (message deliveries,
        serialization completions) where allocating and tracking a handle
        is pure overhead. Firing order is identical to :meth:`schedule`.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))
        self._pending += 1

    def schedule_call_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Handle-free :meth:`schedule_at` (see :meth:`schedule_call`)."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._pending += 1

    def schedule_now(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at the current instant, after already-scheduled
        same-instant events (plain FIFO semantics, like ``schedule(0.0, ...)``);
        handle-free, and on the now-queue instead of the heap.
        """
        self._seq += 1
        self._now_queue.append((self.now, self._seq, fn, args))
        self._pending += 1

    def schedule_timeout(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """:meth:`schedule` under the name deadlines use (watchdogs, receive
        timeouts: overwhelmingly cancelled before they fire). Same store,
        handle and order; written out instead of calling :meth:`schedule`
        so the perf ledger counts the two apart (``sim.sched_timeout``).
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, args, sim=self)
        heapq.heappush(self._heap, (time, self._seq, handle))
        self._pending += 1
        return handle

    def _note_cancelled(self) -> None:
        """Bookkeeping hook for cancellations.

        Keeps :attr:`pending_events` O(1) and compacts the heap when
        cancelled entries exceed half of it -- hygiene for runs that cancel
        events faster than they pop.
        """
        self._pending -= 1
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap > len(self._heap) // 2
            and len(self._heap) >= 64
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (pop order is unchanged:
        entries are strictly ordered by (time, seq)). Handle-free entries
        cannot be cancelled and are always kept."""
        # In place: run() holds a local alias to the heap list across
        # callbacks, so the list object must never be replaced.
        self._heap[:] = [
            entry for entry in self._heap if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run events until both stores drain, ``until`` is reached, or
        :meth:`stop` is called.

        When nothing at or before ``until`` is left the clock advances to
        exactly ``until``, matching the common "simulate T seconds" usage; a
        run cut short by :meth:`stop` leaves it at the last event fired, so
        the next ``run`` resumes there.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        # The aliases are safe because nothing rebinds these attributes
        # mid-run (`_compact` mutates the heap list in place).
        heap = self._heap
        queue = self._now_queue
        heappop = heapq.heappop
        try:
            while not self._stopped:
                # -- select: the smaller (time, seq) of the two heads. Tuple
                # comparison decides on (time, seq); seq is unique, so the
                # heterogeneous third elements are never compared.
                if queue and not (heap and heap[0] < queue[0]):
                    head = queue[0]
                    from_heap = False
                elif heap:
                    head = heap[0]
                    from_heap = True
                    if len(head) == 3 and head[2].cancelled:
                        heappop(heap)
                        self._cancelled_in_heap -= 1
                        continue
                else:
                    head = None
                if head is None or (until is not None and head[0] > until):
                    if until is not None and until > self.now:
                        self.now = until
                    break
                if from_heap:
                    heappop(heap)
                else:
                    queue.popleft()
                # -- fire.
                time = head[0]
                if time < self.now:
                    raise SimulationError("event heap went backwards in time")
                self.now = time
                self._pending -= 1
                self._events_processed += 1
                if len(head) == 4:
                    fn = head[2]
                    args = head[3]
                else:
                    handle = head[2]
                    handle.fired = True
                    fn = handle.fn
                    args = handle.args
                    handle.fn = None
                    handle.args = ()
                fn(*args)
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop :meth:`run` after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events still scheduled (O(1): maintained
        as a live counter instead of scanning the stores)."""
        return self._pending

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"
