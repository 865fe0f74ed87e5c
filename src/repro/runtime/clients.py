"""Client transactions and leader mempools (paper §2's client processes).

The evaluation drives the system with saturating load and varies the block
size (§7.7: "vary the load in the system by manipulating the block size,
i.e. the number of transactions offered by the client"). Accordingly a
node's ``workload`` is one of two things:

- ``None``: saturated -- every proposal carries a full block of
  ``config.txs_per_block`` transactions; the benchmark default.
- a :class:`MempoolWorkload`: a leader-side mempool fed by client
  submissions over the network (see
  :class:`~repro.runtime.workload.WorkloadHarness`) as :class:`TxChunk`
  runs; blocks carry whatever is queued, up to the block budget, as the
  runs themselves, so end-to-end latency is measurable without one object
  per transaction.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.config import ProtocolConfig
from repro.errors import ConfigError, SimulationError


@dataclass(frozen=True)
class BlockFill:
    """What the leader packs into one proposal: ``num_txs`` transactions
    of ``payload_size`` bytes in total, as the oldest-first
    :class:`TxChunk` runs that hold them (``tx_runs``; their counts sum to
    ``num_txs``)."""

    payload_size: int
    num_txs: int
    tx_runs: Tuple["TxChunk", ...] = ()


class TxChunk(NamedTuple):
    """A contiguous run of same-class transactions, represented lazily.

    The workload engine synthesises arrivals in bulk: one tick of one
    client class yields transactions ``(client_id, start_seq) ..
    (client_id, start_seq + count - 1)``, all the same size, all submitted
    at the same instant. Shipping that run as one flyweight instead of one
    object per transaction makes synthesis and admission O(1) per tick,
    and a block carries the runs its proposer drained (``Block.tx_runs``),
    so the consensus and commit paths never enumerate ids either; only the
    KV application and the tests expand a run, with the method below. Network
    timing is unchanged because link costs are driven by the explicit
    ``size=`` argument of ``Network.send``, never by payload object shape.
    """

    client_id: int
    start_seq: int
    count: int
    size: int  # per-transaction bytes
    submitted_at: float

    def split(self, k: int) -> Tuple["TxChunk", "TxChunk"]:
        """(head of k txs, tail of the rest); 0 < k < count."""
        return (
            self._replace(count=k),
            self._replace(start_seq=self.start_seq + k, count=self.count - k),
        )

    def tx_ids(self) -> List[Tuple[int, int]]:
        """The run's ``(client_id, seq)`` ids, in order."""
        client_id = self.client_id
        return [
            (client_id, seq)
            for seq in range(self.start_seq, self.start_seq + self.count)
        ]


#: Admission policies for a bounded mempool. ``drop`` discards overflow
#: (load shedding: clients see the loss in their drop counters); ``defer``
#: parks overflow in an unbounded side queue that re-enters the mempool as
#: proposals free space (modelling client-side retry buffers).
MEMPOOL_POLICIES = ("drop", "defer")


class MempoolWorkload:
    """A leader-side mempool fed by real client submissions (§2's client
    processes).

    Client batches arrive over the network (see
    :class:`~repro.runtime.workload.WorkloadHarness`); the node's client
    pump calls :meth:`admit_batch`, and each proposal drains the oldest
    transactions up to the block budget -- both the payload-byte cap *and*
    ``config.txs_per_block`` (the per-block transaction count the
    CPU/crypto cost model assumes). Carries the drained :class:`TxChunk`
    runs into blocks (a head split off where the budget cuts a run) so
    end-to-end (submit-to-commit) latency is measurable.

    ``capacity_txs`` bounds the mempool (admission control / leader
    backpressure): beyond it, ``policy`` decides whether overflow is
    dropped or deferred. The conservation law ``offered == admitted +
    dropped + deferred_txs`` is checked at the end of every
    :meth:`admit_batch` and :meth:`next_fill`; a broken law raises
    :class:`~repro.errors.SimulationError`.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        capacity_txs: Optional[int] = None,
        policy: str = "drop",
    ):
        if capacity_txs is not None and capacity_txs < 1:
            raise ConfigError(f"mempool capacity must be >= 1, got {capacity_txs}")
        if policy not in MEMPOOL_POLICIES:
            raise ConfigError(
                f"unknown mempool policy {policy!r}; expected one of "
                f"{MEMPOOL_POLICIES}"
            )
        self.config = config
        self.capacity_txs = capacity_txs
        self.policy = policy
        # Queues hold TxChunk runs; the paired counters track the summed
        # transaction counts so ``queued_txs``/``_has_room`` stay O(1)
        # (len(deque) would undercount them).
        self._pending: deque = deque()
        self._pending_txs = 0
        self._deferred: deque = deque()
        self._deferred_txs = 0
        self.admitted = 0  # accepted into the mempool, releases included
        self.offered = 0
        self.dropped = 0
        #: Per-client admission accounting (client id -> count), letting a
        #: workload harness attribute backpressure to client classes.
        self.admitted_by_client: Counter = Counter()
        self.dropped_by_client: Counter = Counter()

    # ------------------------------------------------------------------
    def _has_room(self) -> bool:
        return self.capacity_txs is None or self._pending_txs < self.capacity_txs

    def _headroom(self, want: int) -> int:
        if self.capacity_txs is None:
            return want
        return min(want, max(0, self.capacity_txs - self._pending_txs))

    def _admit_chunk(self, chunk: TxChunk) -> int:
        """Admit one lazy run: capacity headroom computed once, overflow
        split off with O(1) arithmetic instead of a per-tx loop."""
        count = chunk.count
        if count <= 0:
            return 0
        self.offered += count
        take = self._headroom(count)
        if take:
            head = chunk if take == count else chunk.split(take)[0]
            self._pending.append(head)
            self._pending_txs += take
            self.admitted += take
            self.admitted_by_client[chunk.client_id] += take
        overflow = count - take
        if overflow:
            rest = chunk if take == 0 else chunk.split(take)[1]
            if self.policy == "defer":
                self._deferred.append(rest)
                self._deferred_txs += overflow
            else:
                self.dropped += overflow
                self.dropped_by_client[chunk.client_id] += overflow
        return take

    def admit_batch(self, items, now: Optional[float] = None) -> int:
        """Admission control: accept transactions up to capacity.

        Returns the number admitted; overflow is dropped or deferred per
        the policy, and items that are not ``TxChunk`` runs are ignored.
        ``now`` is accepted for symmetry with the client pump (admission is
        instantaneous in the model, so it is unused).

        The outcome equals admitting one transaction at a time (the
        per-transaction oracle in ``tests/reference_mempool.py``), and
        because headroom is consumed strictly in arrival order it is
        invariant to how a batch is partitioned into chunks (both pinned by
        test).
        """
        admitted = 0
        for item in items:
            if isinstance(item, TxChunk):
                admitted += self._admit_chunk(item)
        self._check_conservation()
        return admitted

    def next_fill(self, now: float) -> BlockFill:
        """Drain the oldest queued runs up to the block budget, whole runs
        where they fit and the head of the one the budget cuts."""
        runs: List[TxChunk] = []
        taken = payload = 0
        pending = self._pending
        budget = self.config.txs_per_block
        block_size = self.config.block_size
        while pending and taken < budget:
            head = pending[0]
            size = head.size
            room = budget - taken
            if size > 0:
                room = min(room, (block_size - payload) // size)
            take = min(room, head.count)
            if take <= 0:
                break
            if take == head.count:
                runs.append(pending.popleft())
            else:
                run, pending[0] = head.split(take)
                runs.append(run)
            taken += take
            payload += take * size
            self._pending_txs -= take
        # Backpressure release: space freed by the proposal re-admits
        # deferred transactions in arrival order. Deferred entries were
        # already counted as offered at arrival, so release must bypass
        # the offered counter (the conservation law
        # ``offered == admitted + dropped + deferred_txs`` is pinned by
        # test across defer -> release cycles).
        deferred = self._deferred
        while deferred and self._has_room():
            head = deferred[0]
            take = self._headroom(head.count)
            if take == head.count:
                deferred.popleft()
                chunk = head
            else:
                chunk, deferred[0] = head.split(take)
            self._deferred_txs -= take
            self._pending.append(chunk)
            self._pending_txs += take
            self.admitted += take
            self.admitted_by_client[chunk.client_id] += take
        carried = sum(run.count for run in runs)
        if carried != taken:
            raise SimulationError(
                f"block fill of {taken} txs carries runs of {carried}"
            )
        self._check_conservation()
        return BlockFill(payload, taken, tuple(runs))

    def _check_conservation(self) -> None:
        """Raise unless ``offered == admitted + dropped + deferred_txs``."""
        if self.offered != self.admitted + self.dropped + self._deferred_txs:
            raise SimulationError(
                f"mempool conservation broken: offered={self.offered} != "
                f"admitted={self.admitted} + dropped={self.dropped} + "
                f"deferred_txs={self._deferred_txs}"
            )

    @property
    def queued_txs(self) -> int:
        return self._pending_txs

    @property
    def deferred_txs(self) -> int:
        return self._deferred_txs


class _ClientAwareNetem:
    """Netem wrapper mapping client process ids onto host-node parameters.

    Clients get ids ``n, n+1, ...``; cluster-based shapers only know
    processes ``0..n-1``, so a client inherits the link characteristics of
    the node ``id mod n`` (its "access point").

    ``WorkloadHarness`` installs it by assigning ``network.netem``; the
    fabric sees the new shaper by identity on its next send and rebinds
    its link memo (``Network._rebind_netem``)."""

    def __init__(self, base, n: int):
        self._base = base
        self._n = n
        self._base_link_key = getattr(base, "link_key", None)

    def _map(self, process: int) -> int:
        return process if process < self._n else process % self._n

    def params_between(self, src: int, dst: int):
        return self._base.params_between(self._map(src), self._map(dst))

    def link_key(self, src: int, dst: int):
        """A client shares its access point's link class by construction,
        so mapped ids delegate to the base shaper's classes (or stand in
        as the pair key when the base has none)."""
        base_key = self._base_link_key
        if base_key is None:
            return (self._map(src), self._map(dst))
        return base_key(self._map(src), self._map(dst))
