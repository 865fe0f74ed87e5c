"""Byzantine replica behaviours for adversarial testing (paper §2).

The fault model allows up to f < N/3 processes to "produce arbitrary
values, delay or omit messages, and collude", without breaking the
cryptographic primitives. These subclasses exercise the attack surface the
safety argument depends on:

- :class:`EquivocatingLeaderNode` -- as root, sends *different* blocks for
  the same height to different subtrees. Safety must hold because correct
  replicas vote at most once per (view, height, phase), so conflicting
  quorums cannot both form.
- :class:`VoteWithholdingNode` -- an internal node that forwards proposals
  (so its subtree stays live) but neither votes nor relays its children's
  aggregates: the omission attack Theorem 2's impatient channels defend
  the *root* against, and the §5 reconfiguration defends liveness against.
- :class:`VoteForgingNode` -- injects aggregates carrying fabricated tags
  for other processes; collection Integrity (§3.3.2) must keep them out of
  every quorum.
- :class:`SilentNode` -- participates in nothing at all (fail-stop from
  boot, but counted Byzantine).

All subclasses reuse the honest code path for everything they do not
attack, so runs stay comparable.
"""

from __future__ import annotations

from repro.consensus.block import Block
from repro.consensus.tags import prop_tag
from repro.consensus.vote import QuorumCert, vote_value
from repro.core.comm import TreeComm
from repro.core.perfmodel import PROPOSAL_OVERHEAD
from repro.core.smr import SmrNode
from repro.crypto.bls import BlsCollection, BlsScheme
from repro.crypto.secp import SecpCollection, SecpSignature
from repro.topology.tree import Tree


class EquivocatingLeaderNode(SmrNode):
    """Sends conflicting same-height blocks to the two halves of its
    children whenever it is the root, and signs votes for *both* twins
    (hoping to certify either) -- the double-vote that evidence collection
    (:mod:`repro.consensus.evidence`) convicts."""

    __slots__ = ("_twins",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._twins = {}

    def _make_vote(self, view, height, phase, block, can_vote):
        own = yield from super()._make_vote(view, height, phase, block, can_vote)
        twin = self._twins.get(height)
        if own is None or twin is None:
            return own
        yield from self.cpu.consume(self.scheme.cost_sign())
        twin_vote = self.scheme.new(
            self.keypair, vote_value(phase, view, height, twin.hash)
        )
        return own | twin_vote

    def _disseminate_proposal(self, view: int, block: Block, justify: QuorumCert) -> None:
        twin = Block.create(
            height=block.height,
            view=block.view,
            parent=block.parent,
            proposer=self.node_id,
            payload_size=block.payload_size,
            num_txs=block.num_txs,
            created_at=block.created_at,
            justify_view=block.justify_view,
            salt=10_000_000 + self._salt,  # distinct hash, same height
        )
        self.store.add(twin)
        self._twins[block.height] = twin
        parent_meta = self.store.get(block.parent)
        size = block.payload_size + justify.wire_size() + PROPOSAL_OVERHEAD
        # Equivocation is two honest-looking multicasts: one block per
        # half. (It cannot be a single multicast -- payloads differ -- but
        # each half still charges the uplink as one §4.3 batch.)
        kids = self.comm.children
        half = len(kids) // 2
        tag = prop_tag(view)
        self.network.multicast(
            self.node_id, kids[:half], tag, (block, justify, parent_meta), size
        )
        self.network.multicast(
            self.node_id, kids[half:], tag, (twin, justify, parent_meta), size
        )


class _VoteDroppingComm(TreeComm):
    """A communication layer that swallows upward vote aggregates."""

    def send_to_parent(self, tag, payload, size):
        if isinstance(tag, tuple) and tag and tag[0] == "vote":
            return  # omission: the parent will hit its impatient bound Δ
        super().send_to_parent(tag, payload, size)


class VoteWithholdingNode(SmrNode):
    """Forwards proposals and QCs but never contributes or relays votes."""

    __slots__ = ()

    def _build_comm(self, tree: Tree) -> TreeComm:
        assert self.model is not None
        return _VoteDroppingComm(
            self.sim,
            self.network,
            self.node_id,
            tree,
            delta=self.config.delta or self.model.suggested_delta(),
        )

    def _make_vote(self, view, height, phase, block, can_vote):
        return None
        yield  # pragma: no cover - keeps this a generator


class VoteForgingNode(SmrNode):
    """Votes with fabricated signatures claiming *other* processes signed.

    A correct parent must verify and discard them (collection Integrity);
    quorums must never count the forged signers.
    """

    __slots__ = ()

    def _make_vote(self, view, height, phase, block, can_vote):
        value = vote_value(phase, view, height, block.hash)
        victims = [p for p in range(self.n) if p != self.node_id][: self.quorum]
        if isinstance(self.scheme, BlsScheme):
            forged = BlsCollection(
                self.scheme.pki,
                self.scheme.costs,
                {value: {victim: b"\x66" * 32 for victim in victims}},
            )
        else:
            forged = SecpCollection(
                self.scheme.pki,
                self.scheme.costs,
                frozenset(
                    SecpSignature(victim, value, b"\x66" * 32) for victim in victims
                ),
            )
        return forged
        yield  # pragma: no cover - keeps this a generator


class SilentNode(SmrNode):
    """Never participates (fail-stop from boot, counted as Byzantine)."""

    __slots__ = ()

    def start(self) -> None:
        self.stopped = True


class _QcDroppingComm(TreeComm):
    """Disseminates proposals but swallows downward QC traffic."""

    def send_to_children(self, tag, payload, size):
        if isinstance(tag, tuple) and tag and tag[0] == "qc":
            return
        super().send_to_children(tag, payload, size)


class QcWithholdingLeaderNode(SmrNode):
    """A liveness attacker: proposes blocks and collects votes but never
    disseminates the resulting quorum certificates.

    Replicas see steady proposals but no round progress; because the
    pacemaker only resets on verified QCs/commits, the starvation is
    detected and the leader voted out -- the reason progress, not traffic,
    must drive the fault detector.
    """

    __slots__ = ()

    def _build_comm(self, tree: Tree) -> TreeComm:
        assert self.model is not None
        return _QcDroppingComm(
            self.sim,
            self.network,
            self.node_id,
            tree,
            delta=self.config.delta or self.model.suggested_delta(),
        )


class _QcTamperingComm(TreeComm):
    """Forwards QCs with their certified value swapped for a fork."""

    def send_to_children(self, tag, payload, size):
        if (
            isinstance(tag, tuple)
            and tag
            and tag[0] == "qc"
            and isinstance(payload, QuorumCert)
            and not payload.is_genesis
        ):
            payload = QuorumCert(
                phase=payload.phase,
                view=payload.view,
                height=payload.height,
                block_hash="forged-" + payload.block_hash[:8],
                collection=payload.collection,
            )
        super().send_to_children(tag, payload, size)


class QcTamperingNode(SmrNode):
    """An internal node that rewrites quorum certificates in flight.

    The tampered QC claims the quorum certified a different block; since
    the embedded collection's signatures bind the original value, every
    correct descendant's verification fails and the subtree abstains --
    integrity degrades the attack to omission.
    """

    __slots__ = ()

    def _build_comm(self, tree: Tree) -> TreeComm:
        assert self.model is not None
        return _QcTamperingComm(
            self.sim,
            self.network,
            self.node_id,
            tree,
            delta=self.config.delta or self.model.suggested_delta(),
        )
