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
sides rerun the instance through the regular chained rounds
(:class:`~repro.consensus.protocol.Protocol.run_rounds`), guaranteeing the
slow path's liveness. A crashed or silent leader is handled the same way
as in the chained protocol: the pacemaker expires and the view changes.

Fast certificates subsume the prepare/lock state
(:meth:`~repro.consensus.safety.SafetyRules.observe_fast_qc`) and are
acceptable justifications for later proposals and new-view messages
(:meth:`KudzuProtocol.verify_justify`), keeping view changes safe after
fast commits.
"""

from __future__ import annotations

from repro.config import max_faults
from repro.consensus.protocol import HotStuffProtocol
from repro.consensus.vote import Phase, QuorumCert, vote_value
from repro.core.comm import BOTTOM

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

    def fast_commit_rule(self, node, qc: QuorumCert, block) -> None:
        """A verified fast certificate commits immediately."""
        node.safety.observe_qc(qc)
        assert node.pacemaker is not None
        node.pacemaker.record_progress()
        node.fast_commits += 1
        node._commit(block)

    # ------------------------------------------------------------------
    def run_rounds(self, node, view, block, can_vote, is_leader, recorder):
        """One optimistic round; on a miss, the full chained slow path."""
        height = block.height
        phase = Phase.FAST
        own = yield from self.vote_rule(node, view, height, phase, block, can_vote)
        aggregate_started = node.sim.now
        collection = yield from node.comm.wait_for(
            self.vote_tag(view, height, phase), own, node.scheme, node.cpu
        )
        resolve_started = node.sim.now
        if recorder is not None:
            recorder.aggregate(height, resolve_started - aggregate_started)
        qc = yield from self._resolve_fast_qc(
            node, view, height, block, collection, is_leader
        )
        if recorder is not None:
            recorder.wait(height, node.sim.now - resolve_started)
        if qc is not None:
            self.fast_commit_rule(node, qc, block)
            return True
        node.fast_fallbacks += 1
        return (
            yield from super().run_rounds(
                node, view, block, can_vote, is_leader, recorder
            )
        )

    def _resolve_fast_qc(self, node, view, height, block, collection, is_leader):
        """Coroutine: the fast certificate, or None to fall back.

        The root checks the aggregate against the fast quorum and sends
        either the certificate or an explicit fallback notice down the
        tree; replicas receive and verify it. Timeouts and malformed data
        also mean fallback -- never a hang.
        """
        fast_quorum = self.fast_quorum(node)
        tag = self.qc_tag(view, height, Phase.FAST)
        if is_leader:
            value = vote_value(Phase.FAST, view, height, block.hash)
            if not collection.has(value, fast_quorum):
                node.comm.send_to_children(tag, FALLBACK, FALLBACK_SIZE)
                return None
            qc = QuorumCert(Phase.FAST, view, height, block.hash, collection)
            signal = node._prepare_signals.get(height)
            if signal is not None:
                # The pacing chain waits on the instance's first QC; on the
                # fast path that is the fast certificate.
                signal.fire_if_unfired()
            node.comm.send_to_children(tag, qc, qc.wire_size())
            return qc
        data = yield from node.comm.broadcast(tag)
        if data is BOTTOM or not isinstance(data, QuorumCert):
            return None
        qc = data
        if (
            qc.phase is not Phase.FAST
            or qc.view != view
            or qc.height != height
            or qc.block_hash != block.hash
            or qc.is_genesis
        ):
            return None
        yield from node.cpu.consume(node.scheme.cost_verify_collection(qc.collection))
        if not qc.verify(fast_quorum):
            return None
        return qc
