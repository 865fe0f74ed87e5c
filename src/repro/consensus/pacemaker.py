"""The pacemaker: fault-detection timeouts and view advancement (§6, §7.10).

Each replica arms a timer per view. Observing round progress (a new quorum
certificate or a commit) restarts it; expiry triggers a view change. The
timeout schedule follows §7.10: the base value doubles after each of the
first two consecutive reconfigurations and is then capped.

The paper calibrates the base empirically (0.35 s for Kauri vs 1.7 s for
HotStuff -- Kauri's pipelined dissemination is more regular, so its
detector can be more aggressive). In this reproduction the experiment
runner derives the base from the performance model's estimated instance
latency for the same reason; the §7.10 constants remain available via
:mod:`repro.config`.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.timers import Timer


class Pacemaker:
    """Progress watchdog for one replica.

    The restart pattern is extreme: under steady pipelining every committed
    block re-arms the watchdog, so virtually every armed deadline is
    cancelled and the timeout fires only on genuine stalls. Each cycle of
    the underlying :class:`~repro.sim.timers.Timer` leaves one cancelled
    entry on the event heap, which the simulator skips when popped or
    sweeps out once such entries outnumber the live ones.
    """

    def __init__(
        self,
        sim: Simulator,
        base_timeout: float,
        on_timeout: Callable[[], None],
        cap: float = 10.0,
        doublings: int = 2,
    ):
        if base_timeout <= 0:
            raise ConfigError(f"non-positive pacemaker timeout: {base_timeout}")
        self.sim = sim
        self.base_timeout = base_timeout
        # §7.10: doubled after each of the first `doublings` reconfigurations,
        # subsequently capped. The cap never undercuts the base.
        self.cap = max(cap, base_timeout)
        self.doublings = doublings
        self.consecutive_failures = 0
        self.timeouts_fired = 0
        self._timer = Timer(sim, self._fire, name="pacemaker")
        self._on_timeout = on_timeout

    # ------------------------------------------------------------------
    def current_timeout(self) -> float:
        """The §7.10 schedule: base · 2^min(failures, doublings), capped."""
        exponent = min(self.consecutive_failures, self.doublings)
        return min(self.base_timeout * (2 ** exponent), self.cap)

    def start_view(self) -> None:
        """Arm the watchdog for a newly entered view."""
        self._timer.start(self.current_timeout())

    def record_progress(self) -> None:
        """Round progress observed: reset failures and re-arm."""
        self.consecutive_failures = 0
        self._timer.start(self.current_timeout())

    def _fire(self) -> None:
        self.timeouts_fired += 1
        self.consecutive_failures += 1
        self._on_timeout()

    def stop(self) -> None:
        self._timer.cancel()

    @property
    def armed(self) -> bool:
        return self._timer.armed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Pacemaker(timeout={self.current_timeout():.3f}s, "
            f"failures={self.consecutive_failures})"
        )
