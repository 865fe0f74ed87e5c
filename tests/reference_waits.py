"""Reference oracles for the task kernel's native waits.

``Cpu.consume`` and ``Endpoint.try_receive`` / ``receive`` / ``deliver`` /
``purge`` as they were written before the kernel learned ``Hold`` and ``MailboxWait``: on top
of ``Signal`` / ``WaitSignal`` / ``Sleep``, one ``Signal`` per wait and a
``try/finally`` generator frame around it. The method bodies are verbatim
but for where ``_record_busy`` keeps the coalesced interval (now the
``Cpu``'s packed ``BusyLog`` columns); only the class shells are new. ``tests/test_wait_requests.py`` drives these
and the native bodies with the same scripts and requires the same resumes
in the same order at the same instants, the same CPU accounting and busy
intervals -- in no more events: :class:`SignalCpu` wakes every waiter on
every release, the native ``Cpu`` fires one turn event that computes what
those wake-ups computed. That makes this file the oracle of the CPU's
service order, which is not FIFO (see ``Cpu``'s docstring).

:class:`SignalEndpoint` additionally counts the one defect the native path
fixes (``lost_to_cancelled``), so the differential test can tell a permitted
divergence from a real one.
"""

from collections import deque
from typing import Callable, Hashable, Optional

from repro.errors import SimulationError
from repro.net.message import Message
from repro.net.network import Endpoint
from repro.sim.cpu import Cpu
from repro.sim.process import Signal, Sleep, WaitSignal

MatchFn = Callable[[Message], bool]


class SignalCpu(Cpu):
    """``Cpu`` with the Signal-based ``consume``; ``_queue`` holds the turn
    ``Signal`` of every waiting job."""

    __slots__ = ()

    def consume(self, seconds: float):
        if seconds < 0:
            raise SimulationError(f"negative CPU time: {seconds}")
        if seconds == 0.0:
            return
        # Acquire: loop because wakeups are broadcast and a same-instant
        # arrival may win the race; losers simply re-queue. The broadcast
        # (rather than hand-off) makes the queue robust to waiters that
        # were cancelled while waiting.
        while self._busy:
            turn = Signal()
            self._queue.append(turn)
            yield WaitSignal(turn)
        self._busy = True
        self._busy_since = self.sim.now
        completed = False
        try:
            yield Sleep(seconds)
            completed = True
            self.jobs_completed += 1
        finally:
            # Checkpoint the busy span up to *now*: the full cost on normal
            # completion, the partial cost when cancelled mid-Sleep.
            self._record_busy(self._busy_since, self.sim.now)
            if not completed:
                self.jobs_cancelled += 1
            self._busy = False
            self._busy_since = None
            waiters, self._queue = self._queue, deque()
            for turn in waiters:
                turn.fire_if_unfired()

    def _record_busy(self, start: float, end: float) -> None:
        if end <= start:
            return
        self.busy_time += end - start
        ends = self._busy_log.ends
        # Jobs start in nondecreasing time order; a job starting exactly
        # when its predecessor finished extends that interval in place.
        if ends and start <= ends[-1]:
            if end > ends[-1]:
                ends[-1] = end
        else:
            self._busy_log.starts.append(start)
            ends.append(end)


class SignalEndpoint(Endpoint):
    """``Endpoint`` with the Signal-based wait path; ``_waiters`` holds
    ``(match, signal)`` tuples. ``try_receive`` is the ``match``-taking one
    the native ``Endpoint`` had then, copied verbatim: the native one now
    filters by ``src`` alone."""

    __slots__ = ("lost_to_cancelled",)

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        #: Messages fired into a signal nobody waits on any more: its
        #: receiver was cancelled, but the cancellation step that would
        #: remove the entry has not run yet.
        self.lost_to_cancelled = 0

    def deliver(self, msg: Message) -> None:
        self.messages_delivered += 1
        self.bytes_delivered += msg.size
        waiters = self._waiters.get(msg.tag)
        consumer = None
        if waiters:
            live = []
            for entry in waiters:
                match, signal = entry
                if signal.fired:
                    continue  # dead waiter: prune instead of skipping
                if consumer is None and (match is None or match(msg)):
                    consumer = signal
                    continue  # consumed: drop the entry now
                live.append(entry)
            if live:
                waiters[:] = live
            else:
                del self._waiters[msg.tag]
            if consumer is not None:
                if not consumer._waiters:  # instrumentation, not in the original
                    self.lost_to_cancelled += 1
                consumer.fire(msg)
                return
        self._inbox.setdefault(msg.tag, deque()).append(msg)
        self._queued += 1
        if self._queued > self.max_queued:
            self.max_queued = self._queued

    def try_receive(
        self,
        tag: Hashable,
        match: Optional[MatchFn] = None,
        src: Optional[int] = None,
    ) -> Optional[Message]:
        """Non-blocking receive: pop the first queued message accepted by
        the sender filter (``src`` and/or ``match``), if any."""
        queue = self._inbox.get(tag)
        if not queue:
            return None
        if match is None and src is None:
            msg = queue.popleft()
        else:
            # Locate by index and rotate/pop: deque.remove would rescan the
            # queue comparing every element a second time.
            for index, candidate in enumerate(queue):
                if (src is None or candidate.src == src) and (
                    match is None or match(candidate)
                ):
                    break
            else:
                return None
            if index:
                queue.rotate(-index)
                msg = queue.popleft()
                queue.rotate(index)
            else:
                msg = queue.popleft()
        if not queue:
            del self._inbox[tag]
        self._queued -= 1
        return msg

    def receive(
        self,
        tag: Hashable,
        timeout: Optional[float] = None,
        match: Optional[MatchFn] = None,
    ):
        msg = self.try_receive(tag, match)
        if msg is not None:
            return msg
        signal = Signal()
        entry = (match, signal)
        self._waiters.setdefault(tag, []).append(entry)
        try:
            result = yield WaitSignal(signal, timeout)
        finally:
            waiters = self._waiters.get(tag)
            if waiters is not None:
                try:
                    waiters.remove(entry)
                except ValueError:
                    pass
                if not waiters:
                    del self._waiters[tag]
        return result  # Message or TIMEOUT

    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        doomed = [tag for tag in self._inbox if predicate(tag)]
        dropped = 0
        for tag in doomed:
            dropped += len(self._inbox.pop(tag))
        self._queued -= dropped
        for tag in [tag for tag in self._waiters if predicate(tag)]:
            live = [entry for entry in self._waiters[tag] if not entry[1].fired]
            if live:
                self._waiters[tag][:] = live
            else:
                del self._waiters[tag]
        return dropped
