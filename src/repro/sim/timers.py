"""Restartable one-shot timers.

The consensus pacemaker arms a timer per view; receiving progress restarts
it, and expiry triggers a view change. :class:`Timer` wraps the simulator's
event handles with restart/cancel semantics and guards against stale
callbacks from superseded arms.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.engine import EventHandle, Simulator


class Timer:
    """A one-shot timer that can be cancelled and re-armed.

    The callback receives no arguments; bind context with a closure or
    ``functools.partial``. Restarting an armed timer cancels the previous
    deadline atomically (no double fire).
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "timer"):
        self.sim = sim
        self.callback = callback
        self.name = name
        self._handle: Optional[EventHandle] = None
        self._deadline: Optional[float] = None
        self.fire_count = 0

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"negative timer delay: {delay}")
        self.cancel()
        self._deadline = self.sim.now + delay
        self._handle = self.sim.schedule_timeout(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer; no-op if not armed."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
            self._deadline = None

    def _fire(self) -> None:
        self._handle = None
        self._deadline = None
        self.fire_count += 1
        self.callback()

    @property
    def armed(self) -> bool:
        return self._handle is not None

    @property
    def deadline(self) -> Optional[float]:
        """Absolute simulated time of the next fire, or ``None`` if disarmed."""
        return self._deadline

    @property
    def remaining(self) -> Optional[float]:
        """Seconds until fire, or ``None`` if disarmed."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.armed:
            return f"Timer({self.name!r}, fires_at={self._deadline:.6f})"
        return f"Timer({self.name!r}, disarmed)"
