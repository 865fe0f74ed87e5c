"""Replica safety rules: vote-once and locking (HotStuff, paper §3.1).

Safety is independent of the communication topology -- these rules are
shared by the star (HotStuff) and tree (Kauri) nodes, and they are what the
Byzantine tests attack:

- A replica votes at most once per (view, height, phase). The records of
  that rule are dropped once their height is committed, so they stay
  O(instances in flight) instead of growing with the run (see
  :class:`SafetyRules`).
- A replica only prepare-votes for a proposal that *safely extends* its
  lock: the proposal's justify QC is at least as recent as the locked QC,
  or the proposal extends the locked block (the HotStuff safeNode rule).
- A replica locks on seeing a pre-commit quorum (§3.1, second round: "the
  value proposed by the leader is locked and will not be changed, even if
  the leader is subsequently suspected").
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.consensus.block import Block, BlockStore
from repro.consensus.vote import Phase, QuorumCert, genesis_qc


class SafetyRules:
    """Per-replica voting state machine.

    Vote-once records live in ``_voted``: ``(height, view)`` -> a bitmask
    with bit ``phase._value_`` set for each phase voted, so a lookup hashes
    two ints and never calls the Python-level ``Enum.__hash__``. Records at
    heights the store has committed are dropped when the next vote is
    recorded: the keys also sit in a min-heap, which makes that amortised
    O(1) per vote, with no scan per commit.

    Dropping them changes no answer :meth:`may_vote` is ever asked: an
    instance asks once per phase, and a view runs at most one instance per
    height (``SmrNode._seen_heights`` on replicas, a fresh height per
    proposal on the leader), so no (view, height, phase) is asked twice.
    That is a different rule from "refuse to vote at a committed height",
    which would change which votes are cast.
    """

    def __init__(self, store: BlockStore):
        self.store = store
        self.locked_qc: QuorumCert = genesis_qc()  # pre-commit lock
        self.high_prepare_qc: QuorumCert = genesis_qc()  # for new-view messages
        self._voted: Dict[Tuple[int, int], int] = {}
        #: Min-heap of the keys of ``_voted``, lowest height first.
        self._voted_keys: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Voting guards
    # ------------------------------------------------------------------
    def may_vote(self, view: int, height: int, phase: Phase) -> bool:
        """Vote-once check (does not record)."""
        return not self._voted.get((height, view), 0) >> phase._value_ & 1

    def record_vote(self, view: int, height: int, phase: Phase) -> None:
        voted = self._voted
        keys = self._voted_keys
        committed = self.store.committed_height
        while keys and keys[0][0] <= committed:
            del voted[heappop(keys)]
        key = (height, view)
        phases = voted.get(key)
        if phases is None:
            heappush(keys, key)
            phases = 0
        voted[key] = phases | 1 << phase._value_

    def safe_proposal(self, block: Block, justify: QuorumCert) -> bool:
        """The safeNode predicate for a prepare vote on ``block``.

        Pipelining-aware (§4.2): the justify QC may certify an *ancestor*
        several heights up rather than the direct parent, because the leader
        proposes optimistically before earlier instances certify. The
        proposal must descend from the justify QC's block, and either the
        justify is strictly newer than our lock (liveness rule) or the block
        extends the locked block (safety rule). The strict inequality plus
        the vote-once rule is what makes conflicting commits impossible.
        """
        if block.height <= justify.height:
            return False
        if not self.store.extends(block, justify.block_hash):
            return False
        if self.locked_qc.is_genesis:
            return True
        if justify.view > self.locked_qc.view:
            return True
        return self.store.extends(block, self.locked_qc.block_hash)

    # ------------------------------------------------------------------
    # QC-driven state updates
    # ------------------------------------------------------------------
    def observe_prepare_qc(self, qc: QuorumCert) -> None:
        """Track the highest prepare QC seen (relayed in new-view, §6)."""
        if qc.phase is Phase.PREPARE and qc.newer_than(self.high_prepare_qc):
            self.high_prepare_qc = qc

    def observe_precommit_qc(self, qc: QuorumCert) -> None:
        """Lock on the pre-commit quorum (§3.1)."""
        if qc.phase is Phase.PRECOMMIT and qc.newer_than(self.locked_qc):
            self.locked_qc = qc

    def observe_fast_qc(self, qc: QuorumCert) -> None:
        """A Kudzu fast certificate commits in one round, so it subsumes
        both the prepare and the lock state: it becomes the high QC relayed
        in new-view messages and the lock no later proposal may cross."""
        if qc.phase is not Phase.FAST:
            return
        if qc.newer_than(self.high_prepare_qc):
            self.high_prepare_qc = qc
        if qc.newer_than(self.locked_qc):
            self.locked_qc = qc

    def observe_qc(self, qc: QuorumCert) -> None:
        """Dispatch on phase."""
        if qc.phase is Phase.PREPARE:
            self.observe_prepare_qc(qc)
        elif qc.phase is Phase.PRECOMMIT:
            self.observe_precommit_qc(qc)
        elif qc.phase is Phase.FAST:
            self.observe_fast_qc(qc)

    @property
    def locked_block_hash(self) -> str:
        return self.locked_qc.block_hash
