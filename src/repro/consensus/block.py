"""Blocks and the replicated block store.

A block carries ``payload_size`` bytes of client transactions (the actual
transaction bytes are never materialized -- the evaluation only varies the
block size, §7.7) plus the quorum certificate justifying it. Blocks chain
by parent hash; committing a block commits its uncommitted ancestors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConsensusError

GENESIS_HASH = "genesis"


def _block_hash(height: int, view: int, parent: str, proposer: int, salt: int) -> str:
    payload = f"{height}|{view}|{parent}|{proposer}|{salt}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class Block:
    """One proposal in the chain."""

    height: int
    view: int
    parent: str  # parent block hash
    proposer: int
    payload_size: int  # bytes of client transactions
    num_txs: int
    created_at: float  # simulated time of proposal
    hash: str = field(default="")
    justify_view: int = -1  # view of the QC embedded in the proposal
    #: The client transactions packed into this block, as the
    #: :class:`~repro.runtime.clients.TxChunk` runs the proposer's mempool
    #: drained (a handful per block, their counts summing to ``num_txs``).
    #: Empty for synthetic (saturated) workloads where transactions are
    #: accounted by count only.
    tx_runs: Tuple = ()

    @staticmethod
    def create(
        height: int,
        view: int,
        parent: str,
        proposer: int,
        payload_size: int,
        num_txs: int,
        created_at: float,
        justify_view: int = -1,
        salt: int = 0,
        tx_runs: Tuple = (),
    ) -> "Block":
        """Build a block, deriving its content hash; ``salt`` disambiguates
        otherwise-identical proposals (e.g. re-proposals, Byzantine twins)."""
        return Block(
            height=height,
            view=view,
            parent=parent,
            proposer=proposer,
            payload_size=payload_size,
            num_txs=num_txs,
            created_at=created_at,
            hash=_block_hash(height, view, parent, proposer, salt),
            justify_view=justify_view,
            tx_runs=tuple(tx_runs),
        )


def make_genesis() -> Block:
    """The pre-agreed height-0 block."""
    return Block(
        height=0,
        view=-1,
        parent="",
        proposer=-1,
        payload_size=0,
        num_txs=0,
        created_at=0.0,
        hash=GENESIS_HASH,
    )


class BlockStore:
    """Per-replica DAG of known blocks (``_blocks``) and the committed chain
    prefix (``_committed``: height -> block, the chain's only record)."""

    def __init__(self):
        genesis = make_genesis()
        self._blocks: Dict[str, Block] = {genesis.hash: genesis}
        self._committed: Dict[int, Block] = {0: genesis}
        self.committed_height = 0

    # ------------------------------------------------------------------
    def add(self, block: Block) -> None:
        existing = self._blocks.get(block.hash)
        if existing is not None and existing != block:
            raise ConsensusError(f"hash collision for {block.hash}")
        self._blocks[block.hash] = block

    def get(self, block_hash: str) -> Optional[Block]:
        return self._blocks.get(block_hash)

    def __contains__(self, block_hash: str) -> bool:
        return block_hash in self._blocks

    def knows_chain(self, block: Block) -> bool:
        """True if every ancestor down to a committed block is known."""
        current = block
        while True:
            if self.is_committed(current):
                return True
            parent = self._blocks.get(current.parent)
            if parent is None:
                return False
            current = parent

    def extends(self, block: Block, ancestor_hash: str) -> bool:
        """True if ``ancestor_hash`` is on ``block``'s ancestor chain
        (inclusive of the block itself). Works even when the ancestor block
        object itself is unknown, as long as a known descendant names it as
        parent."""
        current: Optional[Block] = block
        while current is not None:
            if current.hash == ancestor_hash or current.parent == ancestor_hash:
                return True
            current = self._blocks.get(current.parent)
        return False

    # ------------------------------------------------------------------
    def commit(self, block: Block) -> List[Block]:
        """Commit ``block`` and its uncommitted ancestors, oldest first.

        Returns the newly committed blocks. Raises
        :class:`~repro.errors.ConsensusError` on a safety violation: a
        different block already committed at one of the heights.
        """
        chain: List[Block] = []
        current: Optional[Block] = block
        while current is not None and current.height > 0:
            already = self._committed.get(current.height)
            if already is not None:
                if already.hash != current.hash:
                    raise ConsensusError(
                        f"conflicting commit at height {current.height}: "
                        f"{already.hash} vs {current.hash}"
                    )
                break
            chain.append(current)
            current = self._blocks.get(current.parent)
        if current is None:
            raise ConsensusError(
                f"cannot commit {block.hash}: ancestor chain incomplete"
            )
        # Verify the chain attaches to the committed prefix contiguously.
        chain.reverse()
        for member in chain:
            if member.height != self.committed_height + 1:
                raise ConsensusError(
                    f"commit gap: expected height {self.committed_height + 1}, "
                    f"got {member.height}"
                )
            self._committed[member.height] = member
            self.committed_height = member.height
        return chain

    def committed_block(self, height: int) -> Optional[Block]:
        return self._committed.get(height)

    def is_committed(self, block: Block) -> bool:
        committed = self._committed.get(block.height)
        return committed is not None and committed.hash == block.hash

    def committed_chain(self) -> List[Block]:
        """Committed blocks above genesis, oldest first."""
        return list(self._committed.values())[1:]

    @property
    def known_blocks(self) -> int:
        return len(self._blocks)
