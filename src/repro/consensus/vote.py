"""Votes, phases and quorum certificates (paper §3.1).

Each consensus instance runs four rounds: *prepare*, *pre-commit*,
*commit*, *decide*. Rounds 1-3 aggregate a quorum of N-f signatures over
``(phase, view, height, block_hash)``; round 4 only disseminates the commit
quorum. A :class:`QuorumCert` wraps a cryptographic collection whose valid
signer count for that value reaches the quorum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.collection import Collection
from repro.errors import ConsensusError


class Phase(enum.Enum):
    """The four rounds of one consensus instance (§3.1), plus the optional
    single-round optimistic phase used by the Kudzu fast path (a ``FAST``
    quorum commits in one round; on a miss the protocol falls back to the
    regular ``PREPARE`` round, which is why ``FAST.next is PREPARE``)."""

    FAST = 0
    PREPARE = 1
    PRECOMMIT = 2
    COMMIT = 3
    DECIDE = 4

    @property
    def has_aggregation(self) -> bool:
        """Rounds 1-3 (and the fast round) collect votes; round 4 only
        disseminates."""
        return self is not Phase.DECIDE

    @property
    def next(self) -> "Phase":
        if self is Phase.DECIDE:
            raise ConsensusError("DECIDE has no next phase")
        return Phase(self.value + 1)


def vote_value(phase: Phase, view: int, height: int, block_hash: str) -> Tuple:
    """The canonical value signed by a vote in ``phase``."""
    # ``_name_`` is the member's plain attribute; ``.name`` would go through
    # enum's DynamicClassAttribute descriptor on every vote.
    return ("vote", phase._name_, view, height, block_hash)


@dataclass(frozen=True)
class QuorumCert:
    """A certified quorum for one (phase, view, height, block)."""

    phase: Phase
    view: int
    height: int
    block_hash: str
    collection: Optional[Collection]  # None only for the genesis QC

    @property
    def value(self) -> Tuple:
        return vote_value(self.phase, self.view, self.height, self.block_hash)

    @property
    def is_genesis(self) -> bool:
        return self.collection is None

    def verify(self, quorum: int) -> bool:
        """Check the embedded collection certifies the value with ``quorum``
        valid distinct signers. The genesis QC is valid by agreement."""
        if self.is_genesis:
            return True
        return self.collection.has(self.value, quorum)

    def signers(self):
        if self.is_genesis:
            return frozenset()
        return self.collection.signers_for(self.value)

    def wire_size(self) -> int:
        """Bytes on the wire: framing plus the collection."""
        if self.is_genesis:
            return 16
        return 16 + self.collection.wire_size()

    def newer_than(self, other: "QuorumCert") -> bool:
        """Ordering used to pick the high QC from new-view messages (§6)."""
        return (self.view, self.height) > (other.view, other.height)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QC({self.phase.name}, view={self.view}, height={self.height}, "
            f"block={self.block_hash[:8]})"
        )


def genesis_qc() -> QuorumCert:
    """The pre-agreed certificate for the genesis block."""
    from repro.consensus.block import GENESIS_HASH

    return QuorumCert(
        phase=Phase.PREPARE, view=-1, height=0, block_hash=GENESIS_HASH, collection=None
    )
