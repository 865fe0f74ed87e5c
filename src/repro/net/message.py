"""Wire messages.

A :class:`Message` is the unit carried by the network fabric. ``size`` is
the payload's wire size in bytes (the sender computes it from the crypto
cost model and block size); the fabric adds a fixed per-message header when
charging the NIC. ``tag`` routes the message to the right receive call on
the destination endpoint -- the paper's "unique identifier per instance"
that gives the impatient receives of :mod:`repro.core.comm` their
single-use semantics (§3.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Optional


@dataclass(slots=True)
class Message:
    """A point-to-point message in flight or delivered.

    Slotted: millions of instances are allocated per run, and dropping the
    per-instance ``__dict__`` cuts both memory and attribute-access cost on
    the network hot path.
    """

    src: int
    dst: int
    tag: Hashable
    payload: Any
    size: int  # payload wire bytes, excluding the fabric header
    sent_at: float = 0.0
    delivered_at: Optional[float] = None
    #: Monotone per-network id, for tracing and deduplication.
    uid: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative message size: {self.size}")

    @property
    def latency(self) -> Optional[float]:
        """Send-to-delivery latency, or ``None`` while in flight."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.src}->{self.dst}, tag={self.tag!r}, "
            f"size={self.size}, sent={self.sent_at:.4f})"
        )
