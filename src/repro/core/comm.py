"""``broadcastMsg`` and ``waitFor`` on trees (paper Algorithms 2 and 3).

One :class:`TreeComm` is instantiated per process per view, bound to that
view's topology. The same code serves every role: the root injects data and
collects the final aggregate; internal nodes forward down and aggregate up;
leaves receive and vote. A star (height-1 tree) degenerates to HotStuff's
pattern with zero forwarding hops.

Timeout discipline: vote receives (Algorithm 3) always use the impatient
bound Δ, so a faulty child can never block aggregation -- the liveness
mechanism Theorem 2 relies on. Dissemination receives (Algorithm 2) are
unbounded: their arrival time depends on pipelining depth, so the
pacemaker bounds the wait instead (a documented deviation from Algorithm
1's fixed Δ that preserves its guarantees: the receive still always
terminates, via view change, which cancels it). A receiver writes them out
as ``Endpoint.try_receive`` plus ``yield Endpoint.wait`` from its parent,
then :meth:`TreeComm.relay`.

Algorithm 1's impatient channel is :meth:`TreeComm.wait_for`'s per-child
receive, not a class of its own: it yields the value the child sent or ⊥
(the child is left out of the aggregate) once its bound has passed,
accepts only that child's messages, and is single-use because every
consensus (instance, round) has a fresh tag. Validity, Termination and
Conditional Accuracy are checked in ``tests/test_net_impatient.py``.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple

from repro.crypto.collection import Collection
from repro.crypto.signature import SignatureScheme
from repro.errors import CryptoError
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.cpu import Cpu
from repro.sim.engine import Simulator
from repro.sim.process import TIMEOUT
from repro.topology.tree import Tree


class TreeComm:
    """Tree-scoped communication primitives for one process."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: int,
        tree: Tree,
        delta: float,
    ):
        if node_id not in tree:
            raise ValueError(f"process {node_id} not in topology")
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.tree = tree
        self.delta = delta
        self.parent: Optional[int] = tree.parent(node_id)
        self.children: Tuple[int, ...] = tree.children(node_id)
        self._endpoint = network.endpoint(node_id)
        # A child heading a deeper subtree may legitimately take longer to
        # reply: its own aggregation waits up to Δ per level below it. The
        # per-child bound is therefore (1 + subtree height) · Δ, keeping
        # the worst case known, as Algorithm 1 requires.
        self._child_depth_factor: dict = {
            child: 1 + self._subtree_height(child) for child in self.children
        }

    def _subtree_height(self, node: int) -> int:
        base = self.tree.depth(node)
        return max(self.tree.depth(member) for member in self.tree.subtree(node)) - base

    @property
    def is_root(self) -> bool:
        return self.parent is None

    # ------------------------------------------------------------------
    # Raw edges
    # ------------------------------------------------------------------
    def send_to_children(self, tag: Hashable, payload: Any, size: int) -> None:
        """Forward ``payload`` down one level (Algorithm 2, lines 7-9).

        One fabric :meth:`Network.multicast`: the children's messages
        serialize back to back on this node's uplink, the §4.3 sending
        time. On a star topology the root's children are all other
        processes, so this is also HotStuff's leader broadcast.
        """
        if self.children:
            self.network.multicast(self.node_id, self.children, tag, payload, size)

    def send_to_parent(self, tag: Hashable, payload: Any, size: int) -> None:
        if self.parent is None:
            raise ValueError("the root has no parent")
        self.network.send(self.node_id, self.parent, tag, payload, size)

    # ------------------------------------------------------------------
    # Algorithm 2: broadcastMsg
    # ------------------------------------------------------------------
    def relay(self, tag: Hashable, msg: Message) -> Any:
        """Algorithm 2's step after the receive at a non-root: forward the
        parent's message down one level and return its value.

        The root's Algorithm 2 is :meth:`send_to_children` alone; every
        other process receives from its parent (``Endpoint.try_receive``,
        then ``yield Endpoint.wait`` on a miss) and relays. Callers write
        the receive out themselves, so a task parked on it is the caller's
        frame alone.
        """
        self.send_to_children(tag, msg.payload, msg.size)
        return msg.payload

    # ------------------------------------------------------------------
    # Algorithm 3: waitFor
    # ------------------------------------------------------------------
    def wait_for(
        self,
        tag: Hashable,
        own: Optional[Collection],
        scheme: SignatureScheme,
        cpu: Cpu,
        timeout: Optional[float] = None,
    ):
        """Coroutine implementing Algorithm 3 at this process.

        ``own`` is this process's vote as a singleton collection (``None``
        if it cannot vote, e.g. it never received the proposal); children's
        partial aggregates are received impatiently (bound ``timeout``,
        default Δ), validated (charged to ``cpu``), merged, and the result
        is relayed to the parent. Returns the final collection (meaningful
        at the root; at other nodes it is what was relayed).

        All per-child impatient timers start at phase entry, as if the
        receives ran concurrently: a faulty child costs at most its own Δ
        of *wall* time, never Δ per faulty sibling (crucial when many
        children are crashed -- the star-fallback recovery of §5.3 would
        otherwise stall behind f sequential timeouts).
        """
        base_bound = self.delta if timeout is None else timeout
        start = self.sim.now
        collection: Collection = own if own is not None else scheme.empty()
        kind = type(collection)
        endpoint = self._endpoint
        for child in self.children:
            # Endpoint.receive's two steps, written out: a parked receive is
            # then this frame alone, not this one plus receive's.
            msg = endpoint.try_receive(tag, child)
            if msg is None:
                deadline = start + base_bound * self._child_depth_factor[child]
                bound = max(0.0, deadline - self.sim.now)
                msg = yield endpoint.wait(tag, bound, child)
                if msg is TIMEOUT:
                    continue  # ⊥: faulty or slow child; aggregate what we have
            partial = msg.payload
            # Exact-type test first: isinstance on the Collection ABC goes
            # through ABCMeta.__instancecheck__ on every child reply.
            if type(partial) is not kind and not isinstance(partial, Collection):
                continue  # Byzantine garbage in place of a collection
            yield from cpu.consume(scheme.cost_verify_share())
            yield from cpu.consume(scheme.cost_combine(1))
            try:
                collection = collection.combine(partial)
            except CryptoError:
                continue  # incompatible/forged partial: contributes nothing
        if self.parent is not None:
            self.send_to_parent(tag, collection, collection.wire_size())
        return collection

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "root" if self.is_root else ("internal" if self.children else "leaf")
        return f"TreeComm(node={self.node_id}, {role}, fanout={len(self.children)})"
