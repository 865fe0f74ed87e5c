"""The protocol-agnostic SMR replica base.

One :class:`SmrNode` per process. It owns everything every protocol on this
fabric shares -- lifecycle (start/stop, crash injection), view entry and
task cancellation, the persistent client pump, pacemaker/timeout wiring,
per-view :class:`~repro.core.comm.TreeComm` construction, the commit
plumbing (buffered out-of-order commits, metrics, state-machine
application) and the :class:`~repro.obs.recorder.PhaseRecorder` hooks --
and delegates every protocol decision to a pluggable
:class:`~repro.consensus.protocol.Protocol` strategy resolved from the
mode's ``protocol`` field:

- a *proposal pump* (non-roots): receives round-1 proposals from the
  parent, forwards them down (Algorithm 2), and spawns one instance
  handler per height;
- *instance handlers*, one generator frame each: dissemination/validation
  followed by the strategy's vote rounds (``Protocol.vote_phases``) -- the
  §3.1 three-round chain for Kauri/HotStuff, the optimistic fast round
  ahead of it for Kudzu;
- the *leader loop* (root): collects 2f+1 new-view messages when taking
  over (§6), then paces proposals according to the strategy -- stretch-timed
  for Kauri (§4.2), QC-chained with depth 4 for HotStuff (§4.1), strictly
  sequential for Kauri-np;
- the *pacemaker*: resets on verified quorum certificates and commits;
  expiry sends a new-view message to the next root and advances the view.

The *mechanisms* (signing a vote, forming a QC, disseminating a
proposal) also live here as overridable hooks: Byzantine
behaviours in :mod:`repro.consensus.byzantine` subclass them directly,
independent of which strategy is plugged in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import ProtocolConfig, quorum_size
from repro.consensus.block import Block, BlockStore
from repro.consensus.pacemaker import Pacemaker
from repro.consensus.safety import SafetyRules
from repro.consensus.tags import CLIENT_TX_TAG
from repro.consensus.vote import Phase, QuorumCert, vote_value
from repro.core.comm import TreeComm
from repro.core.modes import ModeSpec, protocol_for, protocol_kind
from repro.core.perfmodel import PROPOSAL_OVERHEAD, PerfModel
from repro.crypto.collection import Collection
from repro.crypto.signature import SignatureScheme
from repro.net.network import Network
from repro.sim.cpu import Cpu
from repro.sim.engine import Simulator
from repro.sim.process import Signal, Sleep, Task, spawn
from repro.topology.reconfig import ReconfigurationPolicy
from repro.topology.tree import Tree

#: Extra wire bytes of a new-view message beyond its QC.
NEWVIEW_OVERHEAD = 256


@dataclass(frozen=True, slots=True)
class ReplicaShared:
    """Deployment-wide immutable replica configuration (the flyweight).

    Every replica of one deployment runs the same protocol strategy
    against the same crypto scheme, topology policy, protocol config,
    mode spec, performance-model factory and metrics sink -- and derives
    the same quorum sizes from them. One frozen instance holds all of it;
    per-node state keeps a single reference, so an N=1000 deployment pays
    for this configuration once instead of a thousand times.

    Strategies are stateless (they receive the node on every call), which
    is what makes sharing :attr:`protocol` across replicas safe; a node
    that needs a bespoke strategy can still assign ``node.protocol``.
    :attr:`protocol` is ``None`` in a deployment of a standalone node class
    (PBFT), which reads the rest of this configuration the same way.
    """

    scheme: SignatureScheme
    policy: ReconfigurationPolicy
    config: ProtocolConfig
    mode: ModeSpec
    model_factory: Callable[[Tree], PerfModel]
    metrics: Any
    protocol: Any
    n: int
    quorum: int
    newview_quorum: int

    @classmethod
    def build(
        cls,
        scheme: SignatureScheme,
        policy: ReconfigurationPolicy,
        config: ProtocolConfig,
        mode: ModeSpec,
        model_factory: Callable[[Tree], PerfModel],
        metrics: Any,
    ) -> "ReplicaShared":
        n = policy.n
        return cls(
            scheme=scheme,
            policy=policy,
            config=config,
            mode=mode,
            model_factory=model_factory,
            metrics=metrics,
            protocol=(
                protocol_for(mode) if protocol_kind(mode.protocol) == "strategy" else None
            ),
            n=n,
            quorum=quorum_size(n),
            newview_quorum=2 * ((n - 1) // 3) + 1,  # §6: 2f+1
        )


class SmrNode:
    """One replica of the deployment, parameterized by a protocol strategy."""

    __slots__ = (
        "shared", "node_id", "sim", "network", "workload", "protocol",
        "keypair", "endpoint", "cpu", "store", "safety",
        "view", "tree", "comm", "model", "pacemaker", "stopped",
        "_view_tasks", "_persistent_tasks", "_seen_heights",
        "_prepare_signals", "_inflight", "_pending_commits", "_salt",
        "instance_failures", "fast_commits", "fast_fallbacks",
        "pacer", "app", "obs",
    )

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
        self.workload = workload  # None = saturated (always-full blocks)
        # No strategy means a standalone-node deployment (PBFT), where
        # protocol_for raises the ConfigError: an SmrNode cannot run there.
        self.protocol = shared.protocol or protocol_for(shared.mode)

        self.keypair = shared.scheme.pki.keypair(node_id)
        self.endpoint = network.register(node_id)
        self.cpu = Cpu(sim, name=f"cpu-{node_id}")
        self.store = BlockStore()
        self.safety = SafetyRules(self.store)

        self.view = -1
        self.tree: Optional[Tree] = None
        self.comm: Optional[TreeComm] = None
        self.model: Optional[PerfModel] = None
        self.pacemaker: Optional[Pacemaker] = None
        self.stopped = False

        #: Live tasks of the current view in spawn order: the view's main
        #: task (leader loop or proposal pump) under ``None``, each undecided
        #: instance under its height.
        self._view_tasks: Dict[Optional[int], Task] = {}
        self._persistent_tasks: List[Task] = []
        self._seen_heights: set = set()
        self._prepare_signals: Dict[int, Signal] = {}
        self._inflight: set = set()
        self._pending_commits: List[Block] = []
        self._salt = 0
        self.instance_failures = 0
        #: Kudzu fast-path counters (zero for every other protocol).
        self.fast_commits = 0
        self.fast_fallbacks = 0
        self.pacer = None
        #: Optional application (state machine) fed by the commit path.
        self.app: Any = None
        #: Optional :class:`~repro.obs.recorder.PhaseRecorder`, attached by
        #: the cluster builder when observability is enabled.
        self.obs: Any = None

    # ------------------------------------------------------------------
    # Shared (deployment-wide) configuration, read through the flyweight.
    # ------------------------------------------------------------------
    @property
    def scheme(self) -> SignatureScheme:
        return self.shared.scheme

    @property
    def policy(self) -> ReconfigurationPolicy:
        return self.shared.policy

    @property
    def config(self) -> ProtocolConfig:
        return self.shared.config

    @property
    def mode(self) -> ModeSpec:
        return self.shared.mode

    @property
    def model_factory(self) -> Callable[[Tree], PerfModel]:
        return self.shared.model_factory

    @property
    def metrics(self) -> Any:
        return self.shared.metrics

    @property
    def n(self) -> int:
        return self.shared.n

    @property
    def quorum(self) -> int:
        return self.shared.quorum

    @property
    def newview_quorum(self) -> int:
        return self.shared.newview_quorum

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the replica into view 0 (no new-view collection at genesis)."""
        self.pacemaker = Pacemaker(
            self.sim,
            base_timeout=self.config.base_timeout,
            on_timeout=self._on_timeout,
            cap=self.config.timeout_cap,
        )
        if self.workload is not None:
            self._persistent_tasks.append(
                spawn(self.sim, self._client_pump(), name=f"n{self.node_id}-clients")
            )
        self._enter_view(0)

    def _client_pump(self):
        """Persistent ingress for client transaction batches (§2): each
        batch goes to the mempool's ``admit_batch`` (bounded admission with
        drop/defer backpressure, amortised over whole batches and chunks)."""
        admit = self.workload.admit_batch
        while True:
            msg = yield from self.endpoint.receive(CLIENT_TX_TAG)
            if isinstance(msg.payload, list):
                admit(msg.payload, self.sim.now)

    def stop(self) -> None:
        """Halt the replica (crash injection); idempotent."""
        self.stopped = True
        self._cancel_view_tasks()
        for task in self._persistent_tasks:
            task.cancel()
        self._persistent_tasks.clear()
        if self.pacemaker is not None:
            self.pacemaker.stop()

    def _cancel_view_tasks(self) -> None:
        for task in self._view_tasks.values():
            task.cancel()
        self._view_tasks.clear()

    def _spawn(self, gen, name: str, height: Optional[int] = None) -> Task:
        """Start a task that dies with the view: its main task
        (``height`` is None) or the instance at ``height``.

        An instance removes itself when it ends (``_instance``'s
        ``finally``), so a long fault-free view does not keep every decided
        instance's task and generator alive until the next view change.
        The rest keep their spawn order: cancelling them in that order is
        what allocates the cancellations' event sequence numbers.
        """
        task = spawn(self.sim, gen, name=f"n{self.node_id}-{name}")
        self._view_tasks[height] = task
        return task

    def _enter_view(self, view: int) -> None:
        if self.stopped:
            return
        self._cancel_view_tasks()
        self.view = view
        self.tree = self.policy.configuration(view)
        self.model = self.model_factory(self.tree)
        # Clear in place rather than reallocating: view changes are common
        # under faults, and _cancel_view_tasks() has already run every
        # instance's finally block, so nothing observes the old contents.
        self._seen_heights.clear()
        self._prepare_signals.clear()
        self._inflight.clear()
        self.comm = self._build_comm(self.tree)
        self.endpoint.purge(lambda tag: self.protocol.is_stale_tag(tag, view))
        assert self.pacemaker is not None
        self.pacemaker.base_timeout = self.model.suggested_timeout(
            self.config.base_timeout
        )
        self.pacemaker.cap = max(self.config.timeout_cap, self.pacemaker.base_timeout)
        self.pacemaker.start_view()
        if self.tree.root == self.node_id:
            self._spawn(self._leader_main(view), f"leader-v{view}")
        else:
            self._spawn(self._proposal_pump(view), f"pump-v{view}")

    def _build_comm(self, tree: Tree) -> TreeComm:
        """Hook: build this view's communication layer (overridden by
        Byzantine behaviours in :mod:`repro.consensus.byzantine`)."""
        assert self.model is not None
        return TreeComm(
            self.sim,
            self.network,
            self.node_id,
            tree,
            delta=self.config.delta or self.model.suggested_delta(),
        )

    def _on_timeout(self) -> None:
        """Pacemaker expiry: reconfigure (§6)."""
        if self.stopped:
            return
        next_view = self.view + 1
        self.metrics.on_view_change(self.node_id, next_view, self.sim.now)
        next_leader = self.policy.leader_of(next_view)
        high = self.safety.high_prepare_qc
        payload = (high, self.store.get(high.block_hash))
        self.network.send(
            self.node_id,
            next_leader,
            self.protocol.newview_tag(next_view),
            payload,
            high.wire_size() + NEWVIEW_OVERHEAD,
        )
        self._enter_view(next_view)

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------
    def _leader_main(self, view: int):
        justify = self.safety.high_prepare_qc
        if view > 0:
            justify = yield from self._collect_new_views(view)
        parent_hash = justify.block_hash
        next_height = justify.height + 1
        protocol = self.protocol
        stretch = protocol.effective_stretch(self)
        interval = self.model.proposal_interval(stretch)
        cap = protocol.inflight_cap(self, stretch)
        self.pacer = protocol.make_pacer(self, stretch)
        while True:
            if len(self._inflight) < cap:
                block = protocol.propose(self, view, next_height, parent_hash)
                justify_now = self.safety.high_prepare_qc
                self._inflight.add(block.height)
                self._prepare_signals[block.height] = Signal()
                self._spawn(
                    self._instance(view, block, justify_now, is_leader=True),
                    f"inst-{block.height}",
                    block.height,
                )
                parent_hash = block.hash
                proposed_height = next_height
                next_height += 1
                yield from protocol.pace(self, proposed_height, interval)
            else:
                yield Sleep(interval)

    def _make_block(self, view: int, height: int, parent_hash: str) -> Block:
        self._salt += 1
        tx_runs = ()
        if self.workload is not None:
            fill = self.workload.next_fill(self.sim.now)
            payload_size, num_txs = fill.payload_size, fill.num_txs
            tx_runs = fill.tx_runs
        else:
            payload_size, num_txs = self.config.block_size, self.config.txs_per_block
        block = Block.create(
            height=height,
            view=view,
            parent=parent_hash,
            proposer=self.node_id,
            payload_size=payload_size,
            num_txs=num_txs,
            created_at=self.sim.now,
            justify_view=view,
            salt=self._salt,
            tx_runs=tx_runs,
        )
        self.store.add(block)
        return block

    def _collect_new_views(self, view: int):
        """§6: await 2f+1 new-view messages; return the high prepare QC."""
        high = self.safety.high_prepare_qc
        collected = {self.node_id}
        while len(collected) < self.newview_quorum:
            msg = yield from self.endpoint.receive(self.protocol.newview_tag(view))
            if msg.src in collected:
                continue
            payload = msg.payload
            if not (isinstance(payload, tuple) and len(payload) == 2):
                continue
            qc, block = payload
            if not isinstance(qc, QuorumCert):
                continue
            if not qc.is_genesis:
                yield from self.cpu.consume(
                    self.scheme.cost_verify_collection(qc.collection)
                )
                if not self.protocol.verify_justify(self, qc):
                    continue
            if isinstance(block, Block) and block.hash == qc.block_hash:
                self.store.add(block)
            collected.add(msg.src)
            if qc.newer_than(high):
                high = qc
        self.safety.observe_prepare_qc(high)
        self.safety.observe_fast_qc(high)
        return high

    # ------------------------------------------------------------------
    # Replica side
    # ------------------------------------------------------------------
    def _proposal_pump(self, view: int):
        """Receive proposals from the parent, forward, spawn handlers.

        The receive is written out (``try_receive``, then ``yield wait``),
        as in :meth:`_instance`: a parked pump is this frame alone.
        """
        tag = self.protocol.prop_tag(view)
        comm = self.comm
        parent = comm.parent
        endpoint = self.endpoint
        while True:
            msg = endpoint.try_receive(tag, parent)
            if msg is None:
                msg = yield endpoint.wait(tag, None, parent)
            # Algorithm 2: forward before validating -- internal nodes are
            # relays; validation happens before *voting*.
            parsed = self.protocol.on_proposal(self, view, comm.relay(tag, msg))
            if parsed is None:
                continue
            block, justify, parent_meta = parsed
            if block.height in self._seen_heights:
                continue  # duplicate or equivocation at a known height
            self._seen_heights.add(block.height)
            self._spawn(
                self._instance(
                    view, block, justify, is_leader=False, parent_meta=parent_meta
                ),
                f"inst-{block.height}",
                block.height,
            )

    @staticmethod
    def _parse_proposal(payload: Any):
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return None
        block, justify, parent_meta = payload
        if not isinstance(block, Block) or not isinstance(justify, QuorumCert):
            return None
        if parent_meta is not None and not isinstance(parent_meta, Block):
            return None
        return block, justify, parent_meta

    def _validate_proposal(
        self, view: int, block: Block, justify: QuorumCert, parent_meta: Optional[Block]
    ):
        """Coroutine: full round-1 validation; returns vote eligibility."""
        if parent_meta is not None and parent_meta.hash == block.parent:
            self.store.add(parent_meta)
        if block.view != view or block.proposer != self.tree.root:
            return False
        if not justify.is_genesis:
            yield from self.cpu.consume(
                self.scheme.cost_verify_collection(justify.collection)
            )
            if not self.protocol.verify_justify(self, justify):
                return False
        self.store.add(block)
        if not self.safety.safe_proposal(block, justify):
            return False
        self.safety.observe_prepare_qc(justify)
        self.safety.observe_fast_qc(justify)
        return True

    # ------------------------------------------------------------------
    # One consensus instance (dissemination + the strategy's vote rounds)
    # ------------------------------------------------------------------
    def _instance(
        self,
        view: int,
        block: Block,
        justify: QuorumCert,
        is_leader: bool,
        parent_meta: Optional[Block] = None,
    ):
        """Coroutine: one consensus instance, in one generator frame;
        returns whether it decided.

        The proposal prelude, then every round of the strategy's
        ``vote_phases``: vote, aggregate (Algorithm 3), and the round's QC,
        formed by the root (:meth:`_form_qc`) and received, relayed and
        verified right here by everyone else -- Algorithm 2's receive,
        written out as ``TreeComm.wait_for`` writes out
        ``Endpoint.receive``, then :meth:`TreeComm.relay`. An instance
        parked on its parent's QC, where pipelining keeps most of them, is
        thus this frame alone.
        """
        height = block.height
        recorder = self.obs
        decided = False
        if recorder is not None:
            recorder.start(height, self.sim.now)
        try:
            if is_leader:
                self._disseminate_proposal(view, block, justify)
                if recorder is not None:
                    # Sends are synchronous NIC enqueues, so the uplink
                    # backlog right after the fan-out *is* the proposal's
                    # serialization span (the measured t_s of §4.3).
                    recorder.disseminate(
                        height, self.network.nic(self.node_id).backlog
                    )
                can_vote = True
            else:
                entered = self.sim.now
                can_vote = yield from self._validate_proposal(
                    view, block, justify, parent_meta
                )
                if recorder is not None:
                    recorder.disseminate(height, self.sim.now - entered)
            # One instance lives inside one view, so its strategy, comm
            # layer, scheme and CPU are fixed: resolve them once, not per
            # round.
            protocol = self.protocol
            comm = self.comm
            parent = comm.parent
            endpoint = self.endpoint
            scheme = self.shared.scheme
            cpu = self.cpu
            sim = self.sim
            for phase in protocol.vote_phases:
                own = yield from protocol.vote_rule(
                    self, view, height, phase, block, can_vote
                )
                aggregate_started = sim.now
                collection = yield from comm.wait_for(
                    protocol.vote_tag(view, height, phase), own, scheme, cpu
                )
                resolve_started = sim.now
                if recorder is not None:
                    recorder.aggregate(height, resolve_started - aggregate_started)
                tag = protocol.qc_tag(view, height, phase)
                quorum = protocol.qc_quorum(self, phase)
                if is_leader:
                    qc = self._form_qc(
                        tag, view, height, phase, block, collection, quorum
                    )
                else:
                    # Sent upward by wait_for and never read again: a parked
                    # instance must not keep its vote and aggregate alive.
                    own = collection = None
                    msg = endpoint.try_receive(tag, parent)
                    if msg is None:
                        msg = yield endpoint.wait(tag, None, parent)
                    data = comm.relay(tag, msg)
                    qc = self._accept_qc(data, view, height, phase, block)
                    if qc is not None:
                        yield from cpu.consume(
                            scheme.cost_verify_collection(qc.collection)
                        )
                        if not qc.verify(quorum):
                            qc = None
                if recorder is not None:
                    recorder.wait(height, sim.now - resolve_started)
                if qc is None:
                    if protocol.qc_missed(self, view, height, phase, is_leader):
                        continue
                    break
                if protocol.commit_rule(self, qc, block):
                    decided = True
                    break
                can_vote = True  # a verified QC re-enables voting downstream
            if not decided:
                self.instance_failures += 1
            return decided
        finally:
            if recorder is not None:
                recorder.finish(height, self.sim.now, decided)
            if view == self.view:
                # Over in its own view: nothing left to cancel. (Cancelled
                # by a view change, it runs this after the new view began.)
                self._view_tasks.pop(height, None)
            self._inflight.discard(height)
            # The pacing reads of both signals (Protocol.pace right after
            # the spawn, _form_qc inside this instance) are over by now.
            self._prepare_signals.pop(height, None)
            done = self._prepare_signals.pop(("done", height), None)
            if done is not None:
                done.fire_if_unfired()

    def _disseminate_proposal(self, view: int, block: Block, justify: QuorumCert) -> None:
        """Hook: round-1 dissemination by the root (overridden by Byzantine
        leaders, e.g. to equivocate).

        ``send_to_children`` is one fabric multicast: the root's §4.3
        back-to-back child serializations, one message at a time on its
        uplink (on a star, this is the leader broadcast).
        """
        payload = (block, justify, self.store.get(block.parent))
        size = block.payload_size + justify.wire_size() + PROPOSAL_OVERHEAD
        self.comm.send_to_children(self.protocol.prop_tag(view), payload, size)

    def _make_vote(self, view: int, height: int, phase: Phase, block: Block, can_vote: bool):
        """Coroutine: sign this phase's vote if the safety rules allow."""
        if not can_vote or not self.safety.may_vote(view, height, phase):
            return None
        self.safety.record_vote(view, height, phase)
        scheme = self.shared.scheme
        yield from self.cpu.consume(scheme.cost_sign())
        return scheme.new(self.keypair, vote_value(phase, view, height, block.hash))

    def _form_qc(
        self,
        tag: Any,
        view: int,
        height: int,
        phase: Phase,
        block: Block,
        collection: Collection,
        quorum: int,
    ) -> Optional[QuorumCert]:
        """The root's half of a round: form ``phase``'s QC from the
        aggregate and disseminate it under ``tag``; None (nothing sent) if
        fewer than ``quorum`` signed.

        The instance's first QC also releases the leader's pacing chain
        (HotStuff's next proposal waits on it).
        """
        if not collection.has(vote_value(phase, view, height, block.hash), quorum):
            return None
        qc = QuorumCert(phase, view, height, block.hash, collection)
        signal = self._prepare_signals.get(height)
        if signal is not None:
            signal.fire_if_unfired()
        self.comm.send_to_children(tag, qc, qc.wire_size())
        return qc

    @staticmethod
    def _accept_qc(
        data: Any, view: int, height: int, phase: Phase, block: Block
    ) -> Optional[QuorumCert]:
        """What the parent disseminated for ``phase``, if it is a QC for
        this very round and block (garbage, a fallback notice or a
        genesis QC are not); its signatures are verified after this, at
        their CPU cost."""
        if (
            not isinstance(data, QuorumCert)
            or data.phase is not phase
            or data.view != view
            or data.height != height
            or data.block_hash != block.hash
            or data.is_genesis
        ):
            return None
        return data

    def _handle_qc(self, qc: QuorumCert, block: Block) -> None:
        self.safety.observe_qc(qc)
        assert self.pacemaker is not None
        self.pacemaker.record_progress()
        if qc.phase is Phase.COMMIT:
            self._commit(block)

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def _commit(self, block: Block) -> None:
        """Commit ``block`` and uncommitted ancestors; buffer on gaps."""
        if self.store.is_committed(block):
            return
        if not self.store.knows_chain(block):
            self._pending_commits.append(block)
            return
        newly = self.store.commit(block)  # raises ConsensusError on conflict
        for committed in newly:
            self.metrics.on_commit(self.node_id, committed, self.sim.now)
            if self.app is not None:
                self.app.apply_block(committed)
        if self._pending_commits:
            pending, self._pending_commits = self._pending_commits, []
            for buffered in pending:
                self._commit(buffered)

    # ------------------------------------------------------------------
    @property
    def committed_height(self) -> int:
        return self.store.committed_height

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "?"
        if self.tree is not None:
            role = "leader" if self.tree.root == self.node_id else "replica"
        return (
            f"{type(self).__name__}(id={self.node_id}, view={self.view}, "
            f"{role}, protocol={self.protocol.name})"
        )
