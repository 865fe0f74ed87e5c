"""A PBFT baseline: clique topology, all-to-all quadratic traffic (§1).

The paper's Table 1 contrasts Kauri with PBFT's communication pattern:
"organizes participants in a clique and uses an all-to-all communication
pattern that incurs in a quadratic message complexity". This module
implements that pattern on the same substrate so the contrast is measured,
not asserted (see ``tests/test_analysis.py::TestMessageComplexity``):

- *pre-prepare*: the primary broadcasts the block to all replicas;
- *prepare*: every replica broadcasts its prepare vote to **all** others,
  and a replica is *prepared* once it has 2f matching prepares plus the
  pre-prepare;
- *commit*: every prepared replica broadcasts its commit vote to all, and
  commits on 2f+1 matching commits.

Per instance that is O(n²) messages versus HotStuff/Kauri's O(n); the
payoff is one communication step fewer per round.

Scope: this baseline targets the fault-free and crash-fault regimes the
benchmarks exercise. The view change carries a lightweight prepared-block
transfer (each replica reports its committed height and highest prepared
block; the new primary re-proposes the highest prepared block above the
committed prefix), which preserves agreement under crash faults: a commit
at height h implies 2f+1 prepared replicas, so any 2f+1 view-change
reports include that block. Full PBFT view-change certificates (proving
the reports themselves) are not modeled, so Byzantine replicas lying in
view changes are out of scope here -- Kauri/HotStuff remain the
adversarially-tested protocols.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

from repro.consensus.block import Block, BlockStore
from repro.consensus.pacemaker import Pacemaker
from repro.consensus.tags import (
    CLIENT_TX_TAG,
    is_stale_tag,
    newview_tag,
    prop_tag,
    vote_tag,
)
from repro.consensus.vote import Phase, vote_value
from repro.core.perfmodel import PROPOSAL_OVERHEAD, PerfModel
from repro.core.smr import ReplicaShared
from repro.net.network import Network
from repro.sim.cpu import Cpu
from repro.sim.engine import Simulator
from repro.sim.process import Task, spawn


# PBFT reuses the shared wire-tag vocabulary (repro.consensus.tags): its
# pre-prepare is a "prop", its all-to-all votes are "vote"s, and its
# view-change report rides the "newview" tag -- so the shared stale-tag
# purge applies uniformly.
_preprepare_tag = prop_tag
_pbft_vote_tag = vote_tag
_viewchange_tag = newview_tag


class PbftNode:
    """One PBFT replica. Constructed like
    :class:`~repro.core.smr.SmrNode`, from the deployment's
    :class:`~repro.core.smr.ReplicaShared`, so the Cluster wiring treats
    both uniformly."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        shared: ReplicaShared,
        workload: Any = None,
    ):
        self.shared = shared
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.scheme = shared.scheme
        self.policy = shared.policy
        self.config = shared.config
        self.mode = shared.mode
        self.model_factory = shared.model_factory
        self.metrics = shared.metrics
        self.workload = workload

        self.n = shared.n
        self.quorum = shared.quorum  # 2f+1 for n = 3f+1
        self.f = (self.n - 1) // 3
        self.keypair = self.scheme.pki.keypair(node_id)
        self.endpoint = network.register(node_id)
        self.cpu = Cpu(sim, name=f"cpu-{node_id}")
        self.store = BlockStore()

        self.view = -1
        self.stopped = False
        self.pacemaker: Optional[Pacemaker] = None
        self.model: Optional[PerfModel] = None
        self._view_tasks: List[Task] = []
        self._persistent_tasks: List[Task] = []
        self._voted: Set[Tuple[int, int, str]] = set()
        self._salt = 0
        self.instance_failures = 0
        self.pacer = None  # interface parity with SmrNode
        self.app: Any = None  # optional state machine on the commit path
        #: Highest block this replica completed the prepare phase for.
        self._last_prepared: Optional[Block] = None

    # ------------------------------------------------------------------
    @property
    def committed_height(self) -> int:
        return self.store.committed_height

    def start(self) -> None:
        self.pacemaker = Pacemaker(
            self.sim,
            base_timeout=self.config.base_timeout,
            on_timeout=self._on_timeout,
            cap=self.config.timeout_cap,
        )
        if self.workload is not None:
            self._persistent_tasks.append(
                spawn(self.sim, self._client_pump(), name=f"pbft{self.node_id}-clients")
            )
        self._enter_view(0)

    def _client_pump(self):
        """Persistent ingress for client transaction batches (§2)."""
        admit = self.workload.admit_batch
        while True:
            msg = yield from self.endpoint.receive(CLIENT_TX_TAG)
            if isinstance(msg.payload, list):
                admit(msg.payload, self.sim.now)

    def stop(self) -> None:
        self.stopped = True
        for task in self._view_tasks:
            task.cancel()
        self._view_tasks.clear()
        for task in self._persistent_tasks:
            task.cancel()
        self._persistent_tasks.clear()
        if self.pacemaker is not None:
            self.pacemaker.stop()

    # ------------------------------------------------------------------
    def _enter_view(self, view: int) -> None:
        if self.stopped:
            return
        for task in self._view_tasks:
            task.cancel()
        self._view_tasks.clear()
        self.view = view
        self.model = self.model_factory(self.policy.configuration(view))
        self.endpoint.purge(lambda tag: is_stale_tag(tag, view))
        assert self.pacemaker is not None
        self.pacemaker.base_timeout = self.model.suggested_timeout(
            self.config.base_timeout
        )
        self.pacemaker.cap = max(self.config.timeout_cap, self.pacemaker.base_timeout)
        self.pacemaker.start_view()
        if self.policy.leader_of(view) == self.node_id:
            self._spawn(self._primary_loop(view), f"primary-v{view}")
        else:
            self._spawn(self._preprepare_pump(view), f"pump-v{view}")

    def _spawn(self, gen, name: str) -> Task:
        task = spawn(self.sim, gen, name=f"pbft{self.node_id}-{name}")
        self._view_tasks.append(task)
        return task

    def _on_timeout(self) -> None:
        if self.stopped:
            return
        next_view = self.view + 1
        self.metrics.on_view_change(self.node_id, next_view, self.sim.now)
        # View-change report: committed height + highest prepared block.
        payload = (self.store.committed_height, self._last_prepared)
        next_primary = self.policy.leader_of(next_view)
        self.network.send(
            self.node_id, next_primary, _viewchange_tag(next_view), payload,
            PROPOSAL_OVERHEAD,
        )
        self._enter_view(next_view)

    # ------------------------------------------------------------------
    # Primary
    # ------------------------------------------------------------------
    def _primary_loop(self, view: int):
        reproposals: List[Block] = []
        if view > 0:
            reproposals = yield from self._collect_view_changes(view)
        height = self.store.committed_height + 1
        parent = self.store.committed_block(self.store.committed_height).hash
        while True:
            if reproposals and reproposals[0].height == height:
                # Safety: a commit at this height may exist elsewhere;
                # re-propose the prepared block rather than a fresh one.
                block = reproposals.pop(0)
            else:
                self._salt += 1
                tx_runs = ()
                if self.workload is not None:
                    fill = self.workload.next_fill(self.sim.now)
                    payload_size, num_txs = fill.payload_size, fill.num_txs
                    tx_runs = fill.tx_runs
                else:
                    payload_size = self.config.block_size
                    num_txs = self.config.txs_per_block
                block = Block.create(
                    height=height,
                    view=view,
                    parent=parent,
                    proposer=self.node_id,
                    payload_size=payload_size,
                    num_txs=num_txs,
                    created_at=self.sim.now,
                    salt=self._salt,
                    tx_runs=tx_runs,
                )
                self.store.add(block)
            size = block.payload_size + PROPOSAL_OVERHEAD
            payload = (block, self.store.get(block.parent))
            yield from self.cpu.consume(self.scheme.cost_sign())
            for peer in range(self.n):
                if peer != self.node_id:
                    self.network.send(
                        self.node_id, peer, _preprepare_tag(view), payload, size
                    )
            done = yield from self._run_instance(view, block)
            if not done:
                self.instance_failures += 1
                return  # stall; the pacemaker rotates the primary
            height += 1
            parent = block.hash

    def _collect_view_changes(self, view: int):
        """Await 2f+1 view-change reports; return the chain of blocks to
        re-propose: the highest reported prepared block plus its
        uncommitted ancestors, oldest first.

        A commit anywhere implies 2f+1 prepared replicas, so any 2f+1
        reports name a prepared block at or above every committed height;
        re-proposing that chain (instead of fresh blocks) keeps the new
        primary's proposals consistent with possible commits.
        """
        collected = {self.node_id}
        best: Optional[Block] = self._last_prepared
        while len(collected) < self.quorum:
            msg = yield from self.endpoint.receive(_viewchange_tag(view))
            if msg.src in collected:
                continue
            payload = msg.payload
            if not (isinstance(payload, tuple) and len(payload) == 2):
                continue
            _, prepared = payload
            if isinstance(prepared, Block):
                if prepared.hash not in self.store:
                    self.store.add(prepared)
                if best is None or prepared.height > best.height:
                    best = prepared
            collected.add(msg.src)
        chain: List[Block] = []
        current = best
        while current is not None and current.height > self.store.committed_height:
            chain.append(current)
            current = self.store.get(current.parent)
        chain.reverse()
        # A gap (unknown ancestor) truncates the re-proposal chain; the
        # loop proposes fresh blocks below it. Unreachable under crash
        # faults with 2f+1 reports, since pre-prepares reached everyone
        # that prepared.
        usable = []
        expected = self.store.committed_height + 1
        for member in chain:
            if member.height == expected:
                usable.append(member)
                expected += 1
        return usable

    # ------------------------------------------------------------------
    # Replicas
    # ------------------------------------------------------------------
    def _preprepare_pump(self, view: int):
        primary = self.policy.leader_of(view)
        while True:
            msg = yield from self.endpoint.receive(_preprepare_tag(view), src=primary)
            if not (isinstance(msg.payload, tuple) and len(msg.payload) == 2):
                continue
            block, parent_meta = msg.payload
            # Re-proposed blocks keep their original view field (the hash
            # binds it); accept proposals from this or earlier views as
            # long as they extend a known chain above our committed prefix
            # (a replica that missed one commit before a view change can
            # rejoin: committing the descendant commits the ancestor too).
            # The attached parent metadata heals a one-block gap left by a
            # primary that crashed mid-broadcast.
            if not isinstance(block, Block) or block.view > view:
                continue
            if (
                isinstance(parent_meta, Block)
                and parent_meta.hash == block.parent
                and parent_meta.hash not in self.store
            ):
                self.store.add(parent_meta)
            if block.height <= self.store.committed_height:
                continue
            if block.height != 1 and block.parent not in self.store:
                continue
            if not self.store.knows_chain(block):
                continue
            self.store.add(block)
            done = yield from self._run_instance(view, block)
            if not done:
                self.instance_failures += 1
                return

    # ------------------------------------------------------------------
    # The two all-to-all vote phases
    # ------------------------------------------------------------------
    def _run_instance(self, view: int, block: Block):
        """Pre-prepare is in hand; run prepare and commit phases."""
        prepared = yield from self._all_to_all_phase(
            view, block, "PREPARE", threshold=2 * self.f + 1
        )
        if not prepared:
            return False
        if self._last_prepared is None or block.height > self._last_prepared.height:
            self._last_prepared = block
        committed = yield from self._all_to_all_phase(
            view, block, "COMMIT", threshold=2 * self.f + 1
        )
        if not committed:
            return False
        newly = self.store.commit(block)
        for member in newly:
            self.metrics.on_commit(self.node_id, member, self.sim.now)
            if self.app is not None:
                self.app.apply_block(member)
        assert self.pacemaker is not None
        self.pacemaker.record_progress()
        # Hygiene: drop straggler votes for this height (the threshold was
        # met; the remaining n - threshold messages would otherwise sit in
        # the inbox for the rest of the view).
        done_tags = {
            _pbft_vote_tag(view, block.height, "PREPARE"),
            _pbft_vote_tag(view, block.height, "COMMIT"),
        }
        self.endpoint.purge(lambda tag: tag in done_tags)
        return True

    def _all_to_all_phase(self, view: int, block: Block, phase: str, threshold: int):
        """Broadcast own vote to everyone; await ``threshold`` distinct
        valid voters in total (own vote included, as in PBFT's "2f+1
        matching" conditions)."""
        tag = _pbft_vote_tag(view, block.height, phase)
        slot = (view, block.height, phase)
        value = vote_value(
            Phase.PREPARE if phase == "PREPARE" else Phase.COMMIT,
            view,
            block.height,
            block.hash,
        )
        if slot not in self._voted:
            self._voted.add(slot)
            yield from self.cpu.consume(self.scheme.cost_sign())
            own = self.scheme.new(self.keypair, value)
            size = own.wire_size()
            for peer in range(self.n):
                if peer != self.node_id:
                    self.network.send(self.node_id, peer, tag, own, size)
        votes: Set[int] = {self.node_id}
        bound = self.config.delta or self.model.suggested_delta()
        deadline = self.sim.now + bound
        while len(votes) < threshold:
            remaining = deadline - self.sim.now
            if remaining <= 0:
                return False
            msg = yield from self.endpoint.receive(tag, timeout=remaining)
            from repro.sim.process import TIMEOUT

            if msg is TIMEOUT:
                return False
            partial = msg.payload
            if msg.src in votes:
                continue
            try:
                yield from self.cpu.consume(self.scheme.cost_verify_share())
                if partial.has(value, 1) and msg.src in partial.signers_for(value):
                    votes.add(msg.src)
            except AttributeError:
                continue  # garbage payload
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PbftNode(id={self.node_id}, view={self.view})"
