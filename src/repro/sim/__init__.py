"""Deterministic discrete-event simulation kernel.

The kernel provides:

- :class:`~repro.sim.engine.Simulator` -- an event heap with a virtual clock.
- :class:`~repro.sim.process.Task` -- generator-based coroutines ("simulated
  processes") that suspend on :class:`~repro.sim.process.Sleep`,
  :class:`~repro.sim.process.WaitSignal`, joins, CPU holds and mailbox
  waits (see :mod:`repro.sim.process` for the five wait requests).
- :class:`~repro.sim.cpu.Cpu` -- a busy-server modelling one core of
  compute per replica (used to charge cryptographic processing time).
- :class:`~repro.sim.timers.Timer` -- restartable one-shot timers (used by
  the consensus pacemaker).

Determinism: given the same seed and the same sequence of API calls, two runs
produce byte-identical traces. Ties in the event heap are broken by a
monotonically increasing sequence number, never by object identity.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.process import TIMEOUT, Signal, Sleep, Task, WaitSignal
from repro.sim.cpu import Cpu
from repro.sim.timers import Timer

__all__ = [
    "Simulator",
    "EventHandle",
    "Task",
    "Signal",
    "Sleep",
    "WaitSignal",
    "TIMEOUT",
    "Cpu",
    "Timer",
]
