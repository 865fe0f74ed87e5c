"""Pluggable SMR protocol strategies (the "protocol zoo" interface).

A :class:`Protocol` packages everything that distinguishes one BFT protocol
from another *on the shared fabric*: which vote rounds run and in what
order, when a replica may vote, how many signers each round's quorum
certificate needs, what a missed certificate means, what justifies a
proposal, when a block commits, and how the leader paces new instances.
Everything else -- view lifecycle, task management, tree/star
communication, the round loop of one instance, the client pump, commit
plumbing and observability hooks -- lives in the protocol-agnostic
:class:`~repro.core.smr.SmrNode` base, which calls into its strategy at the
decision points.

The default method bodies implement the HotStuff/Kauri two-layer chained
protocol of the paper (§3.1): three aggregated rounds (prepare /
pre-commit / commit), QCs formed at the root and disseminated down, commit
on the commit-phase quorum. :class:`KauriProtocol` and
:class:`HotStuffProtocol` differ only in leader pacing (stretch-timed
pipelining vs QC-chained depth 4); the Kudzu fast path
(:mod:`repro.consensus.kudzu`) prepends an optimistic round and changes
what its certificate, or its absence, means.

Adding a protocol is: subclass :class:`Protocol`, override the relevant
rules, and register the class in ``PROTOCOLS`` in
:mod:`repro.core.modes` under a new ``ModeSpec.protocol`` name. No changes
to ``SmrNode`` are required.

Strategies hold no per-instance state: every method receives the node, so
one strategy object serves all heights and views of its replica. Byzantine
behaviours keep working unchanged -- the default rules delegate to the
node-level mechanism hooks (``_make_vote``, ``_form_qc``, ``_handle_qc``,
``_disseminate_proposal``) that :mod:`repro.consensus.byzantine`
subclasses override.
"""

from __future__ import annotations

import math
from typing import Any, Tuple

from repro.consensus import tags
from repro.consensus.vote import Phase, QuorumCert
from repro.sim.process import Signal, Sleep, WaitSignal

#: The aggregated rounds of the chained protocol (§3.1).
VOTE_PHASES = (Phase.PREPARE, Phase.PRECOMMIT, Phase.COMMIT)


class Protocol:
    """Strategy interface consumed by :class:`~repro.core.smr.SmrNode`.

    The base class *is* the chained HotStuff/Kauri protocol; subclasses
    override individual rules to change protocol behaviour without
    touching the node.
    """

    #: Registry name; also used for display (``repro modes``).
    name = "chained"

    #: Aggregated vote rounds, in order.
    vote_phases: Tuple[Phase, ...] = VOTE_PHASES

    # ------------------------------------------------------------------
    # Message tags (shared vocabulary; override to re-key a protocol)
    # ------------------------------------------------------------------
    prop_tag = staticmethod(tags.prop_tag)
    vote_tag = staticmethod(tags.vote_tag)
    qc_tag = staticmethod(tags.qc_tag)
    newview_tag = staticmethod(tags.newview_tag)
    is_stale_tag = staticmethod(tags.is_stale_tag)

    # ------------------------------------------------------------------
    # Leader pacing (§4.1-§4.2)
    # ------------------------------------------------------------------
    def effective_stretch(self, node) -> float:
        """How many extra instances the leader overlaps with one round."""
        if node.mode.pacing == "sequential":
            return 0.0
        if node.config.stretch is not None:
            return node.config.stretch
        return node.model.pipelining_stretch

    def inflight_cap(self, node, stretch: float) -> int:
        """Upper bound on concurrently outstanding instances."""
        if node.mode.pacing == "sequential":
            return 1
        return max(4, math.ceil(node.config.max_inflight_factor * (1.0 + stretch)))

    def make_pacer(self, node, stretch: float):
        """Optional runtime-adaptive pacer (§6 future work); None = static."""
        if node.mode.pacing == "stretch" and node.config.adaptive_stretch:
            from repro.core.pipeline import AdaptivePacer

            return AdaptivePacer(node.model, initial_stretch=stretch)
        return None

    def pace(self, node, height: int, interval: float):
        """Coroutine: wait before the next proposal, according to the mode
        (§4.1-4.2)."""
        if node.mode.pacing == "sequential":
            # Kauri-np / Motor / Omniledger: next instance only after this
            # one fully decides (or dies with the view).
            signal = Signal()
            node._prepare_signals[("done", height)] = signal
            yield WaitSignal(signal)
        elif node.pacer is not None:
            # §6 future work: adapt the stretch at runtime from the local
            # uplink backlog instead of trusting the static configuration.
            yield Sleep(node.pacer.next_interval(node.network.nic(node.node_id)))
        else:
            yield Sleep(interval)

    # ------------------------------------------------------------------
    # Proposal side
    # ------------------------------------------------------------------
    def propose(self, node, view: int, height: int, parent_hash: str):
        """Build (and store) the leader's next block."""
        return node._make_block(view, height, parent_hash)

    def on_proposal(self, node, view: int, payload: Any):
        """Parse a received round-1 proposal; None rejects it (Algorithm 2
        forwards regardless -- validation gates *voting*, not relaying)."""
        return node._parse_proposal(payload)

    def verify_justify(self, node, justify: QuorumCert) -> bool:
        """Is ``justify`` an acceptable (already CPU-charged) justification
        for a new proposal or new-view message?"""
        return justify.phase is Phase.PREPARE and justify.verify(node.quorum)

    # ------------------------------------------------------------------
    # The vote rounds (run by ``SmrNode._instance``, in ``vote_phases``
    # order: vote, aggregate, then the round's QC -- formed by the root,
    # received, relayed and verified by everyone else)
    # ------------------------------------------------------------------
    def vote_rule(self, node, view, height, phase, block, can_vote):
        """Coroutine: this replica's (possibly absent) vote for ``phase``.

        Returns the mechanism's coroutine itself rather than delegating to
        it from a generator of its own, so a parked vote is one frame
        shallower. An override may do either: the instance runs the result
        with ``yield from``.
        """
        return node._make_vote(view, height, phase, block, can_vote)

    def qc_quorum(self, node, phase: Phase) -> int:
        """Signers ``phase``'s certificate needs: the root forms it only
        from that many, and every replica verifies against it."""
        return node.quorum

    def qc_missed(
        self, node, view: int, height: int, phase: Phase, is_leader: bool
    ) -> bool:
        """React to ``phase`` ending without a verified QC (the aggregate
        was short at the root; a replica received ⊥, garbage or a QC that
        failed verification). True runs the next round anyway, False fails
        the instance -- always, in the chained protocol."""
        return False

    def commit_rule(self, node, qc: QuorumCert, block) -> bool:
        """React to a verified QC: safety bookkeeping, pacemaker progress,
        and the commit decision. True iff the instance has decided, in
        which case no later round runs."""
        node._handle_qc(qc, block)
        return qc.phase is Phase.COMMIT


class KauriProtocol(Protocol):
    """The paper's protocol: chained two-layer rounds with stretch-timed
    pipelining (§4.2) -- or strictly sequential instances for the Kauri-np
    baseline (``pacing="sequential"``, §7.4). The tree-vs-star choice and
    the signature scheme live in the :class:`~repro.core.modes.ModeSpec`,
    not here: ``kauri-secp`` and friends share this strategy."""

    name = "kauri"


class HotStuffProtocol(Protocol):
    """Baseline HotStuff (§4.1): same rounds, but the leader chains
    instance k+1 onto instance k's prepare QC, a fixed pipeline depth
    of 4."""

    name = "hotstuff"

    def effective_stretch(self, node) -> float:
        return 3.0  # HotStuff's fixed pipeline depth of 4 rounds (§4.1)

    def inflight_cap(self, node, stretch: float) -> int:
        return 4

    def make_pacer(self, node, stretch: float):
        return None

    def pace(self, node, height: int, interval: float):
        # HotStuff: piggyback round 1 of the next instance on round 2 of
        # this one, i.e. start once the prepare QC is in (§4.1).
        yield WaitSignal(node._prepare_signals[height])
