"""Fault injection for network and process failures.

Supports the failure modes exercised by the paper's evaluation (§7.10) and
by the test suite:

- *crash*: a process stops sending and receiving (optionally at a scheduled
  time);
- *omission*: messages on selected directed edges (or matching a predicate)
  are silently dropped;
- *delay*: extra latency added to selected messages (models pre-GST
  asynchrony).

Byzantine behaviour is injected at the protocol layer
(:mod:`repro.consensus.byzantine`); the injector only tracks which processes
are designated Byzantine so topology/robustness code can reason about them.
"""

from __future__ import annotations

from typing import Callable, Optional, Set, Tuple

from repro.net.message import Message
from repro.sim.engine import Simulator


class FaultInjector:
    """Mutable fault plan consulted by the network fabric on every message.

    Hot-path contract (two tiers):

    - :attr:`_armed` latches True the first time *any* fabric-visible rule
      is registered (crash, scheduled crash, omission edge, drop predicate,
      delay fn) and never resets. While unarmed, the fabric skips the
      per-message serialization-completion hook entirely -- no rule can
      exist when an in-flight message completes, so delivery is scheduled
      directly at send time (one event per message instead of two, in the
      fabric's one emit body). Register rules only through the methods
      below; mutating the rule sets directly would bypass the latch.
    - Once armed, :meth:`Network._serialized` peeks at :attr:`crashed`,
      :attr:`_omission_edges`, :attr:`_drop_predicate` and :attr:`_delay_fn`
      directly (plain attribute tests) to skip
      :meth:`should_drop`/:meth:`extra_delay` dispatch when the registered
      rules are currently inactive. Keep any new drop/delay rule reachable
      from those fields, and latch :attr:`_armed` when it is registered.

    Byzantine designation does not arm: its behaviour lives entirely in the
    protocol layer and never drops or delays fabric traffic.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.crashed: Set[int] = set()
        self.byzantine: Set[int] = set()
        self._omission_edges: Set[Tuple[int, int]] = set()
        self._drop_predicate: Optional[Callable[[Message], bool]] = None
        self._delay_fn: Optional[Callable[[Message], float]] = None
        self.dropped_messages = 0
        #: Monotonic: a fabric-visible rule has been registered at least
        #: once (including scheduled ones that have not taken effect yet).
        self._armed = False

    # ------------------------------------------------------------------
    # Crash faults
    # ------------------------------------------------------------------
    def crash(self, node: int) -> None:
        """Crash ``node`` immediately: it neither sends nor receives."""
        self._armed = True
        self.crashed.add(node)

    def crash_at(self, node: int, time: float) -> None:
        """Schedule a crash of ``node`` at absolute simulated ``time``.

        Arms the injector immediately: messages in flight when the crash
        lands must take the completion-hook path to be droppable."""
        self._armed = True
        self.sim.schedule_at(time, self.crash, node)

    def recover(self, node: int) -> None:
        """Undo a crash (used by tests; the paper does not recover nodes)."""
        self._armed = True
        self.crashed.discard(node)

    def is_crashed(self, node: int) -> bool:
        return node in self.crashed

    # ------------------------------------------------------------------
    # Byzantine designation (behaviour lives in the protocol layer)
    # ------------------------------------------------------------------
    def mark_byzantine(self, node: int) -> None:
        self.byzantine.add(node)

    def is_byzantine(self, node: int) -> bool:
        return node in self.byzantine

    @property
    def faulty(self) -> Set[int]:
        """All processes that are not correct (crashed or Byzantine)."""
        return self.crashed | self.byzantine

    # ------------------------------------------------------------------
    # Omission faults
    # ------------------------------------------------------------------
    def omit_edge(self, src: int, dst: int) -> None:
        """Silently drop every message from ``src`` to ``dst``."""
        self._armed = True
        self._omission_edges.add((src, dst))

    def heal_edge(self, src: int, dst: int) -> None:
        self._armed = True
        self._omission_edges.discard((src, dst))

    def set_drop_predicate(self, predicate: Optional[Callable[[Message], bool]]) -> None:
        """Drop any message for which ``predicate`` returns ``True``."""
        self._armed = True
        self._drop_predicate = predicate

    def should_drop(self, msg: Message) -> bool:
        """Fabric hook: decide whether ``msg`` is lost."""
        if msg.src in self.crashed or msg.dst in self.crashed:
            self.dropped_messages += 1
            return True
        if (msg.src, msg.dst) in self._omission_edges:
            self.dropped_messages += 1
            return True
        if self._drop_predicate is not None and self._drop_predicate(msg):
            self.dropped_messages += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Delay faults
    # ------------------------------------------------------------------
    def set_delay_fn(self, delay_fn: Optional[Callable[[Message], float]]) -> None:
        """Add ``delay_fn(msg)`` seconds of extra latency to each message."""
        self._armed = True
        self._delay_fn = delay_fn

    def extra_delay(self, msg: Message) -> float:
        if self._delay_fn is None:
            return 0.0
        delay = self._delay_fn(msg)
        if delay < 0:
            raise ValueError(f"negative injected delay: {delay}")
        return delay
