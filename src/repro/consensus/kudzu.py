"""Kudzu-style optimistic fast path over the shared SMR fabric.

A single aggregated round suffices to commit when enough replicas are
honest and responsive: the leader disseminates the proposal, replicas send
a *fast vote*, and if the aggregate reaches the **fast quorum**
⌈(n+f+1)/2⌉ the leader forms a ``Phase.FAST`` certificate that commits the
block immediately -- one round-trip instead of the chained protocol's
three. Any two fast quorums intersect in at least f+1 processes, hence in
one honest process, so two conflicting fast certificates cannot both form;
and a fast certificate intersects every regular quorum (n-f) in an honest
process, so the slow path cannot contradict a fast commit either.

When the fast quorum does not form (faults, slow links, a partition), the
leader explicitly signals *fallback* down the dissemination tree and both
sides go on to the regular chained rounds in the same instance
(:meth:`KudzuProtocol.qc_missed`), guaranteeing the slow path's liveness.
A crashed or silent leader is handled the same way as in the chained
protocol: the pacemaker expires and the view changes.

Fast certificates subsume the prepare/lock state
(:meth:`~repro.consensus.safety.SafetyRules.observe_fast_qc`) and are
acceptable justifications for later proposals and new-view messages
(:meth:`KudzuProtocol.verify_justify`), keeping view changes safe after
fast commits.
"""

from __future__ import annotations

from repro.config import max_faults
from repro.consensus.protocol import VOTE_PHASES, HotStuffProtocol
from repro.consensus.vote import Phase, QuorumCert

#: Wire sentinel the leader sends on the fast QC tag when the fast quorum
#: missed, so replicas fall back immediately instead of waiting out Δ.
FALLBACK = "kudzu-fallback"

#: Framing bytes of the fallback notice.
FALLBACK_SIZE = 16


def fast_quorum_size(n: int) -> int:
    """The optimistic quorum ⌈(n+f+1)/2⌉ with f = ⌊(n-1)/3⌋.

    Always at most the regular quorum n-f (equality at n = 3f+1 and
    3f+2), and any two fast quorums intersect in ≥ f+1 processes.
    """
    f = max_faults(n)
    return (n + f + 2) // 2


class KudzuProtocol(HotStuffProtocol):
    """Optimistic single-round commit with chained-HotStuff fallback.

    Runs on the HotStuff star fabric (same pacing: instance k+1 starts on
    instance k's first QC -- fast or prepare)."""

    name = "kudzu"

    def fast_quorum(self, node) -> int:
        return fast_quorum_size(node.n)

    def verify_justify(self, node, justify: QuorumCert) -> bool:
        """A proposal/new-view justification may be a regular prepare QC or
        a fast certificate (which certifies at the fast-quorum threshold)."""
        if justify.phase is Phase.FAST:
            return justify.verify(self.fast_quorum(node))
        return super().verify_justify(node, justify)

    # ------------------------------------------------------------------
    # One optimistic round; on a miss, the full chained slow path.
    # ------------------------------------------------------------------
    vote_phases = (Phase.FAST,) + VOTE_PHASES

    def qc_quorum(self, node, phase: Phase) -> int:
        if phase is Phase.FAST:
            return self.fast_quorum(node)
        return super().qc_quorum(node, phase)

    def qc_missed(self, node, view, height, phase, is_leader) -> bool:
        """A missed fast certificate falls back to the chained rounds. The
        root says so down the tree, so replicas fall back at once instead
        of waiting out Δ; timeouts and malformed data also mean fallback
        -- never a hang."""
        if phase is not Phase.FAST:
            return super().qc_missed(node, view, height, phase, is_leader)
        if is_leader:
            node.comm.send_to_children(
                self.qc_tag(view, height, phase), FALLBACK, FALLBACK_SIZE
            )
        node.fast_fallbacks += 1
        return True

    def commit_rule(self, node, qc: QuorumCert, block) -> bool:
        """A verified fast certificate commits immediately."""
        if qc.phase is not Phase.FAST:
            return super().commit_rule(node, qc, block)
        node._handle_qc(qc, block)  # safety and pacemaker progress
        node.fast_commits += 1
        node._commit(block)
        return True
