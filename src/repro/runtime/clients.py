"""Client workloads: how blocks get filled (paper §2's client processes).

The evaluation drives the system with saturating load and varies the block
size (§7.7: "vary the load in the system by manipulating the block size,
i.e. the number of transactions offered by the client"). Accordingly:

- :class:`SaturatedWorkload` always fills blocks to the configured size --
  the benchmark default.
- :class:`PoissonWorkload` models an open-loop client population with a
  finite transaction arrival rate; blocks carry whatever accumulated since
  the previous proposal (capped at the block size), exercising the partial
  -block path used in examples and tests.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.config import ProtocolConfig
from repro.errors import ConfigError


@dataclass(frozen=True)
class BlockFill:
    """What the leader packs into one proposal."""

    payload_size: int
    num_txs: int
    tx_ids: Tuple = ()


@dataclass(frozen=True)
class Tx:
    """One client transaction (identity + accounting only)."""

    tx_id: Tuple[int, int]  # (client id, sequence number)
    size: int
    submitted_at: float


class TxChunk(NamedTuple):
    """A contiguous run of same-class transactions, represented lazily.

    The workload engine synthesises arrivals in bulk: one tick of one
    client class yields transactions ``(client_id, start_seq) ..
    (client_id, start_seq + count - 1)``, all the same size, all submitted
    at the same instant. Shipping that run as one flyweight instead of
    ``count`` ``Tx`` objects makes synthesis and admission O(1) per tick;
    individual tx ids are only materialised when a block drains them
    (commit-rate bounded, not offered-rate bounded). Network timing is
    unchanged because link costs are driven by the explicit ``size=``
    argument of ``Network.send``, never by payload object shape.
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
        client_id = self.client_id
        return [
            (client_id, seq)
            for seq in range(self.start_seq, self.start_seq + self.count)
        ]

    def materialize(self) -> List[Tx]:
        """Expand into per-transaction ``Tx`` objects (tests, plain
        harnesses, and differential oracles -- never the fast path)."""
        client_id, size, submitted_at = self.client_id, self.size, self.submitted_at
        return [
            Tx((client_id, seq), size, submitted_at)
            for seq in range(self.start_seq, self.start_seq + self.count)
        ]


class SaturatedWorkload:
    """Clients always have a full block's worth of transactions queued."""

    def __init__(self, config: ProtocolConfig):
        self.config = config

    def next_fill(self, now: float) -> BlockFill:
        return BlockFill(self.config.block_size, self.config.txs_per_block)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SaturatedWorkload(block={self.config.block_size}B)"


#: Admission policies for a bounded mempool. ``drop`` discards overflow
#: (load shedding: clients see the loss in their drop counters); ``defer``
#: parks overflow in an unbounded side queue that re-enters the mempool as
#: proposals free space (modelling client-side retry buffers).
MEMPOOL_POLICIES = ("drop", "defer")


class MempoolWorkload:
    """A leader-side mempool fed by real client submissions (§2's client
    processes).

    Client batches arrive over the network (see :class:`ClientHarness`);
    the node's client pump calls :meth:`admit_batch`, and each proposal drains
    the oldest transactions up to the block budget -- both the payload-byte
    cap *and* ``config.txs_per_block`` (the per-block transaction count the
    CPU/crypto cost model assumes). Carries transaction ids into blocks so
    end-to-end (submit-to-commit) latency is measurable.

    ``capacity_txs`` bounds the mempool (admission control / leader
    backpressure): beyond it, ``policy`` decides whether overflow is
    dropped or deferred. Offered/admitted/dropped counters make the
    conservation law checkable: ``offered == admitted + dropped +
    deferred_txs`` at any instant.
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
        # Queues hold Tx | TxChunk; the paired counters track the summed
        # transaction counts so ``queued_txs``/``_has_room`` stay O(1)
        # with chunked entries (len(deque) would undercount them).
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
    def _admit_one(self, tx: Tx) -> None:
        self._pending.append(tx)
        self._pending_txs += 1
        self.admitted += 1
        self.admitted_by_client[tx.tx_id[0]] += 1

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

    def _admit_tx_run(self, txs: List[Tx]) -> int:
        """Bulk-admit materialised transactions: one headroom computation,
        one deque extend, one Counter update per outcome."""
        count = len(txs)
        self.offered += count
        take = self._headroom(count)
        if take:
            accepted = txs if take == count else txs[:take]
            self._pending.extend(accepted)
            self._pending_txs += take
            self.admitted += take
            self.admitted_by_client.update(tx.tx_id[0] for tx in accepted)
        if take < count:
            overflow = txs[take:]
            if self.policy == "defer":
                self._deferred.extend(overflow)
                self._deferred_txs += count - take
            else:
                self.dropped += count - take
                self.dropped_by_client.update(tx.tx_id[0] for tx in overflow)
        return take

    def admit_batch(self, items, now: Optional[float] = None) -> int:
        """Admission control: accept transactions up to capacity.

        Returns the number admitted; overflow is dropped or deferred per
        the policy, and items that are neither ``Tx`` nor ``TxChunk`` are
        ignored. ``now`` is accepted for symmetry with the client pump
        (admission is instantaneous in the model, so it is unused).

        ``items`` may mix ``TxChunk`` runs (the workload fast path) with
        plain ``Tx`` objects; consecutive ``Tx`` runs are admitted with
        slice arithmetic. The outcome equals admitting one transaction at a
        time (the per-item oracle in ``tests/reference_mempool.py``), and
        because headroom is consumed strictly in arrival order it is
        invariant to how a batch is partitioned into chunks (both pinned by
        test).
        """
        admitted = 0
        run: List[Tx] = []
        for item in items:
            if isinstance(item, TxChunk):
                if run:
                    admitted += self._admit_tx_run(run)
                    run = []
                admitted += self._admit_chunk(item)
            elif isinstance(item, Tx):
                run.append(item)
        if run:
            admitted += self._admit_tx_run(run)
        return admitted

    def next_fill(self, now: float) -> BlockFill:
        taken_ids: List[Tuple[int, int]] = []
        payload = 0
        pending = self._pending
        budget = self.config.txs_per_block
        block_size = self.config.block_size
        while pending and len(taken_ids) < budget:
            head = pending[0]
            if isinstance(head, TxChunk):
                size = head.size
                room = budget - len(taken_ids)
                if size > 0:
                    room = min(room, (block_size - payload) // size)
                take = min(room, head.count)
                if take <= 0:
                    break
                client_id = head.client_id
                start = head.start_seq
                taken_ids.extend(
                    (client_id, seq) for seq in range(start, start + take)
                )
                payload += take * size
                self._pending_txs -= take
                if take == head.count:
                    pending.popleft()
                else:
                    pending[0] = head.split(take)[1]
            else:
                if payload + head.size > block_size:
                    break
                pending.popleft()
                self._pending_txs -= 1
                payload += head.size
                taken_ids.append(head.tx_id)
        # Backpressure release: space freed by the proposal re-admits
        # deferred transactions in arrival order. Deferred entries were
        # already counted as offered at arrival, so release must bypass
        # the offered counter (the conservation law
        # ``offered == admitted + dropped + deferred_txs`` is pinned by
        # test across defer -> release cycles).
        deferred = self._deferred
        while deferred and self._has_room():
            head = deferred[0]
            if isinstance(head, TxChunk):
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
            else:
                deferred.popleft()
                self._deferred_txs -= 1
                self._admit_one(head)
        return BlockFill(payload, len(taken_ids), tuple(taken_ids))

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
    the node ``id mod n`` (its "access point")."""

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

    def rewrap(self, new_base) -> "_ClientAwareNetem":
        """Carry the client mapping over to a replacement base shaper.

        Netem swappers (e.g. ``topology.reconfig.swap_scenario``) call this
        duck-typed hook so installing a new shaper preserves the client ->
        access-point mapping instead of silently discarding it."""
        if isinstance(new_base, _ClientAwareNetem):
            new_base = new_base._base
        return _ClientAwareNetem(new_base, self._n)


class ClientHarness:
    """Real client processes (§2) submitting transactions over the network.

    Each client batches transactions every ``batch_interval`` seconds and
    sends them to the replica it currently believes is the leader; replica
    mempools (:class:`MempoolWorkload`) drain them into blocks; commit
    notifications close the loop, yielding end-to-end (submit-to-commit)
    latency. Transactions addressed to a deposed leader are simply lost --
    clients here do not retransmit (tracked in :attr:`lost_estimate`).

    Usage::

        cluster = Cluster(n=7, ..., workload_factory=MempoolWorkload factory)
        harness = ClientHarness(cluster, num_clients=4, rate_txs=500.0)
        harness.start()
        cluster.run(duration=20.0)
        print(harness.e2e_latency_stats())
    """

    def __init__(
        self,
        cluster,
        num_clients: int = 4,
        rate_txs: float = 500.0,
        batch_interval: float = 0.2,
    ):
        if num_clients < 1:
            raise ConfigError(f"need at least one client, got {num_clients}")
        if rate_txs <= 0 or batch_interval <= 0:
            raise ConfigError("rate and batch interval must be positive")
        self.cluster = cluster
        self.num_clients = num_clients
        self.rate_txs = rate_txs
        self.batch_interval = batch_interval
        self.tx_size = cluster.config.tx_size
        self.submitted: dict = {}
        self.e2e_latencies: List[float] = []
        self._client_ids = [cluster.n + k for k in range(num_clients)]
        # Idempotent: a second harness (or a workload harness layered on a
        # plain one) must not re-map already-mapped client ids.
        if not isinstance(cluster.network.netem, _ClientAwareNetem):
            cluster.network.netem = _ClientAwareNetem(
                cluster.network.netem, cluster.n
            )
        for client_id in self._client_ids:
            cluster.network.register(client_id)
        cluster.metrics.commit_listeners.append(self._on_commit)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one submission loop per client (call after wiring)."""
        from repro.consensus.tags import CLIENT_TX_TAG
        from repro.sim.process import Sleep, spawn

        per_client_rate = self.rate_txs / self.num_clients

        def client_loop(client_id):
            seq = 0
            backlog = 0.0
            while True:
                yield Sleep(self.batch_interval)
                backlog += per_client_rate * self.batch_interval
                count = int(backlog)
                backlog -= count
                if count == 0:
                    continue
                now = self.cluster.sim.now
                batch = []
                for _ in range(count):
                    tx = self._make_tx(client_id, seq, now)
                    self.submitted[tx.tx_id] = now
                    batch.append(tx)
                    seq += 1
                leader = self._current_leader()
                self.cluster.network.send(
                    client_id, leader, CLIENT_TX_TAG, batch,
                    size=count * self.tx_size,
                )

        for client_id in self._client_ids:
            spawn(self.cluster.sim, client_loop(client_id), name=f"client-{client_id}")

    def _make_tx(self, client_id: int, seq: int, now: float) -> Tx:
        """Hook: build one transaction (overridden by application-level
        harnesses that attach operation payloads, e.g. the KV store)."""
        return Tx((client_id, seq), self.tx_size, now)

    def _current_leader(self) -> int:
        views = [
            node.view for node in self.cluster.nodes if not node.stopped
        ] or [0]
        return self.cluster.policy.leader_of(max(max(views), 0))

    def _on_commit(self, record, block) -> None:
        for tx_id in block.tx_ids:
            submitted_at = self.submitted.pop(tx_id, None)
            if submitted_at is not None:
                self.e2e_latencies.append(record.time - submitted_at)

    # ------------------------------------------------------------------
    @property
    def committed_txs(self) -> int:
        return len(self.e2e_latencies)

    @property
    def lost_estimate(self) -> int:
        """Submitted transactions not (yet) committed."""
        return len(self.submitted)

    def e2e_latency_stats(self) -> dict:
        """End-to-end (submit-to-commit) latency summary with tail
        percentiles -- same shape as :meth:`Metrics.latency_stats`, plus
        p99/p999 (tail latency is the product under overload)."""
        from repro.runtime.metrics import E2E_PERCENTILES, latency_summary

        return latency_summary(sorted(self.e2e_latencies), E2E_PERCENTILES)


class PoissonWorkload:
    """Open-loop arrivals at ``rate_txs`` transactions per second.

    Deterministic given the RNG: arrivals are accounted in continuous time
    (expected counts, with optional jitter), so the workload composes with
    the deterministic simulator.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        rate_txs: float,
        rng: random.Random = None,
        jitter: bool = True,
    ):
        if rate_txs < 0:
            raise ConfigError(f"negative arrival rate: {rate_txs}")
        self.config = config
        self.rate_txs = rate_txs
        self.rng = rng if rng is not None else random.Random(0)
        self.jitter = jitter
        self._last_drain = 0.0
        self._backlog = 0.0  # fractional queued transactions

    def next_fill(self, now: float) -> BlockFill:
        elapsed = max(0.0, now - self._last_drain)
        self._last_drain = now
        arrivals = self.rate_txs * elapsed
        if self.jitter and arrivals > 0:
            arrivals = max(0.0, self.rng.gauss(arrivals, arrivals ** 0.5))
        self._backlog += arrivals
        take = min(int(self._backlog), self.config.txs_per_block)
        self._backlog -= take
        return BlockFill(take * self.config.tx_size, take)

    @property
    def queued_txs(self) -> int:
        return int(self._backlog)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PoissonWorkload(rate={self.rate_txs}/s)"
