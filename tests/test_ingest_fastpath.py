"""High-rate ingest fast path: chunked arrival synthesis, bulk mempool
admission, histogram-backed latency accounting, and the sweep-cache
maintenance surface that rides along with them.

The load-bearing invariants pinned here:

* the chunked client path produces the byte-identical arrival sequence
  the earlier per-transaction client path produced (digest pinned below),
  for any chunk size;
* ``admit_batch`` is outcome-equivalent to the oracle ``admit`` that
  admits one transaction at a time (``tests/reference_mempool.py``), and
  invariant to how a batch is partitioned into chunks;
* the admission conservation law ``offered == admitted + dropped +
  deferred_txs`` holds at every step across defer -> release cycles;
* ``LatencyHistogram`` percentiles track the exact nearest-rank
  percentile within the documented relative-error bound, in O(buckets)
  memory regardless of sample volume;
* accounting a block's commits per run of equal latency (one weighted
  ``add`` each) leaves every histogram bit-equal to the per-transaction
  loop it replaced.
"""

import hashlib
import math
import random
from bisect import bisect_right
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, ProtocolConfig
from repro.config import KB
from repro.runtime.clients import MempoolWorkload, TxChunk
from repro.runtime.metrics import (
    E2E_PERCENTILES,
    LatencyHistogram,
    latency_summary,
    percentile,
)
from repro.runtime import workload as workload_module
from repro.runtime.workload import (
    ClientClassSpec,
    WorkloadHarness,
    WorkloadSpec,
    make_workload_factory,
)
from tests.reference_mempool import PerItemMempool


# ---------------------------------------------------------------------------
# TxChunk flyweight
# ---------------------------------------------------------------------------
class TestTxChunk:
    def test_split_partitions_the_run(self):
        chunk = TxChunk(client_id=3, start_seq=10, count=7, size=512,
                        submitted_at=1.5)
        head, tail = chunk.split(2)
        assert head.count == 2 and head.start_seq == 10
        assert tail.count == 5 and tail.start_seq == 12
        assert head.tx_ids() + tail.tx_ids() == chunk.tx_ids()

    def test_tx_ids_enumerate_the_run(self):
        chunk = TxChunk(client_id=1, start_seq=5, count=4, size=256,
                        submitted_at=0.25)
        assert chunk.tx_ids() == [(1, 5), (1, 6), (1, 7), (1, 8)]


# ---------------------------------------------------------------------------
# Bulk admission: differential vs the per-item oracle
# ---------------------------------------------------------------------------
def make_pool(capacity, policy, block_size=64 * KB, tx_size=512,
              mempool=MempoolWorkload):
    config = ProtocolConfig(block_size=block_size, tx_size=tx_size)
    return mempool(config, capacity_txs=capacity, policy=policy)


def pool_state(pool):
    return {
        "offered": pool.offered,
        "admitted": pool.admitted,
        "dropped": pool.dropped,
        "queued": pool.queued_txs,
        "deferred": pool.deferred_txs,
        "admitted_by_client": dict(pool.admitted_by_client),
        "dropped_by_client": dict(pool.dropped_by_client),
    }


def drain(pool, rounds=200):
    """Repeated next_fill until the pool is empty; returns the concatenated
    tx id sequence and payload sizes (the proposer-visible surface)."""
    ids, payloads = [], []
    for now in range(rounds):
        fill = pool.next_fill(float(now))
        if fill.num_txs == 0 and pool.queued_txs == 0 and pool.deferred_txs == 0:
            break
        ids.extend(fill.tx_ids)
        payloads.append(fill.payload_size)
    return ids, payloads


batch_items = st.lists(
    st.tuples(
        st.booleans(),                      # run or single tx
        st.integers(min_value=0, max_value=3),   # client id
        st.integers(min_value=1, max_value=40),  # chunk count
        st.sampled_from([128, 512, 700]),        # tx size
    ),
    min_size=0,
    max_size=25,
)


def build_items(raw):
    """Unique, per-client-monotonic tx ids, as the workload engine emits."""
    items, next_seq = [], {}
    for is_chunk, client, count, size in raw:
        seq = next_seq.get(client, 0)
        if not is_chunk:
            count = 1
        items.append(TxChunk(client, seq, count, size, 0.125))
        next_seq[client] = seq + count
    return items


@settings(max_examples=120, deadline=None)
@given(
    raw=batch_items,
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
    policy=st.sampled_from(["drop", "defer"]),
)
def test_admit_batch_matches_per_item_oracle(raw, capacity, policy):
    items = build_items(raw)
    fast = make_pool(capacity, policy)
    oracle = make_pool(capacity, policy, mempool=PerItemMempool)
    admitted_fast = fast.admit_batch(items)
    admitted_ref = oracle.admit(items)
    assert admitted_fast == admitted_ref
    assert pool_state(fast) == pool_state(oracle)
    assert drain(fast) == drain(oracle)


@settings(max_examples=120, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=120),
    cuts=st.lists(st.integers(min_value=1, max_value=119), max_size=6),
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
    policy=st.sampled_from(["drop", "defer"]),
)
def test_admission_invariant_to_chunk_partition(count, cuts, capacity, policy):
    """Splitting one arrival run into sub-chunks never changes the
    admit/drop/defer outcome (headroom is consumed in arrival order)."""
    whole = TxChunk(client_id=0, start_seq=0, count=count, size=512,
                    submitted_at=0.0)
    bounds = [0] + sorted(set(c for c in cuts if c < count)) + [count]
    parts = [
        TxChunk(0, lo, hi - lo, 512, 0.0)
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    assert sum(p.count for p in parts) == count

    one = make_pool(capacity, policy)
    many = make_pool(capacity, policy)
    one.admit_batch([whole])
    many.admit_batch(parts)
    assert pool_state(one) == pool_state(many)
    assert drain(one) == drain(many)


def test_admit_accepts_chunks_too():
    """A chunk larger than the headroom is split: the head is admitted,
    the rest dropped and charged to its client."""
    pool = make_pool(capacity=5, policy="drop")
    taken = pool.admit_batch([TxChunk(0, 0, 8, 512, 0.0)])
    assert taken == 5
    assert pool.offered == 8 and pool.dropped == 3
    assert pool.dropped_by_client[0] == 3


def test_chunk_drain_splits_across_blocks():
    """A chunk larger than one block drains partially and keeps ids
    contiguous across fills."""
    config = ProtocolConfig(block_size=4 * 512, tx_size=512)
    pool = MempoolWorkload(config, capacity_txs=None, policy="drop")
    pool.admit_batch([TxChunk(7, 100, 10, 512, 0.0)])
    first = pool.next_fill(0.0)
    second = pool.next_fill(1.0)
    third = pool.next_fill(2.0)
    assert first.num_txs == 4 and second.num_txs == 4 and third.num_txs == 2
    assert list(first.tx_ids + second.tx_ids + third.tx_ids) == [
        (7, seq) for seq in range(100, 110)
    ]
    assert first.payload_size == 4 * 512
    assert pool.queued_txs == 0


# ---------------------------------------------------------------------------
# Conservation law across defer -> release cycles
# ---------------------------------------------------------------------------
def check_conservation(pool):
    assert pool.offered == pool.admitted + pool.dropped + pool.deferred_txs
    if pool.capacity_txs is not None:
        assert pool.queued_txs <= pool.capacity_txs


@pytest.mark.parametrize("policy", ["drop", "defer"])
@pytest.mark.parametrize("use_batch", [False, True])
def test_conservation_law_across_release_cycles(policy, use_batch):
    """offered == admitted + dropped + deferred holds at every step, for
    the bulk path and the per-item oracle, across sustained defer ->
    release cycles.

    Deferred entries are counted as offered at arrival, so the release
    loop inside next_fill must bypass the offered counter; double-counting
    there is exactly what this regression test exists to catch.
    """
    rng = random.Random(11)
    pool = make_pool(capacity=50, policy=policy, mempool=PerItemMempool)
    admit = pool.admit_batch if use_batch else pool.admit
    for step in range(60):
        items = []
        for _ in range(rng.randrange(4)):
            client = rng.randrange(3)
            count = rng.randrange(1, 40) if rng.random() < 0.5 else 1
            items.append(TxChunk(client, step * 1000 + len(items) * 100,
                                 count, 512, float(step)))
        admit(items)
        check_conservation(pool)
        pool.next_fill(float(step))
        check_conservation(pool)
    # Drain to empty: with defer nothing is ever dropped, and everything
    # offered is eventually admitted.
    drain(pool)
    check_conservation(pool)
    assert pool.deferred_txs == 0
    if policy == "defer":
        assert pool.dropped == 0
        assert pool.admitted == pool.offered


def test_release_preserves_arrival_order_with_chunks():
    pool = make_pool(capacity=4, policy="defer", block_size=2 * 512)
    pool.admit_batch([
        TxChunk(0, 0, 3, 512, 0.0),
        TxChunk(1, 0, 1, 512, 0.0),
        TxChunk(2, 0, 3, 512, 0.0),
    ])
    check_conservation(pool)
    ids, _ = drain(pool)
    assert ids == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (2, 2)]
    check_conservation(pool)


# ---------------------------------------------------------------------------
# LatencyHistogram
# ---------------------------------------------------------------------------
def hist_state(hist):
    """Every bit of a histogram's state (``total`` compared exactly)."""
    return (dict(hist.counts), hist.count, hist.total, hist.min, hist.max)


class TestLatencyHistogram:
    def test_empty_summary_matches_exact_shape(self):
        hist = LatencyHistogram()
        assert hist.summary(E2E_PERCENTILES) == latency_summary(
            [], E2E_PERCENTILES
        )
        assert len(hist) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LatencyHistogram(buckets_per_octave=0)
        with pytest.raises(ValueError):
            LatencyHistogram(low=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(50)

    def test_exact_count_min_max_and_clamped_mean(self):
        hist = LatencyHistogram()
        values = [0.003, 0.8, 0.0021, 2.5, 0.8]
        hist.add_many(values)
        summary = hist.summary(E2E_PERCENTILES)
        assert summary["count"] == len(values)
        assert summary["max"] == max(values)
        assert hist.min == min(values)
        assert summary["mean"] == pytest.approx(sum(values) / len(values))
        assert min(values) <= summary["mean"] <= max(values)

    def test_documented_error_bound_on_random_latencies(self):
        """p50/p95/p99/p999 stay within relative_error of the exact
        nearest-rank percentile across seven orders of magnitude."""
        rng = random.Random(5)
        hist = LatencyHistogram()
        values = [10 ** rng.uniform(-5.5, 1.5) for _ in range(20_000)]
        hist.add_many(values)
        values.sort()
        bound = hist.relative_error * (1 + 1e-9) + 1e-15
        for p in E2E_PERCENTILES:
            exact = percentile(values, p)
            assert abs(hist.percentile(p) - exact) <= exact * bound

    def test_memory_is_bounded_by_dynamic_range_not_volume(self):
        hist = LatencyHistogram()
        rng = random.Random(9)
        for _ in range(50_000):
            hist.add(10 ** rng.uniform(-6, 4))
        # 1e-6 .. 1e4 is ~33 octaves; sparse buckets can never exceed
        # (octaves + 1) * buckets_per_octave however many samples arrive.
        assert len(hist.counts) <= 34 * hist.buckets_per_octave
        assert hist.count == 50_000

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e4, allow_nan=False,
                      allow_infinity=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_percentile_parity_with_exact_path(self, values):
        hist = LatencyHistogram()
        hist.add_many(values)
        ordered = sorted(values)
        # relative_error covers the half-bucket representative offset; one
        # extra half bucket absorbs float rounding of the log at bucket
        # boundaries (hypothesis aims for them).
        bound = 2.0 ** (1.5 / hist.buckets_per_octave) - 1.0 + 1e-12
        for p in (0, 50, 95, 99, 100):
            exact = percentile(ordered, p)
            got = hist.percentile(p)
            assert abs(got - exact) <= exact * bound
            assert hist.min <= got <= hist.max

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e4, allow_nan=False,
                      allow_infinity=False),
            min_size=1,
            max_size=200,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_insertion_order_independent(self, values, seed):
        forward = LatencyHistogram()
        forward.add_many(values)
        shuffled = list(values)
        random.Random(seed).shuffle(shuffled)
        other = LatencyHistogram()
        other.add_many(shuffled)
        assert forward.counts == other.counts
        forward_summary = forward.summary(E2E_PERCENTILES)
        other_summary = other.summary(E2E_PERCENTILES)
        assert forward_summary["count"] == other_summary["count"]
        assert forward_summary["max"] == other_summary["max"]
        for p in E2E_PERCENTILES:
            key = f"p{f'{p:g}'.replace('.', '')}"
            assert forward_summary[key] == other_summary[key]
        assert forward_summary["mean"] == pytest.approx(
            other_summary["mean"], rel=1e-9
        )

    def test_summary_matches_percentile_method(self):
        hist = LatencyHistogram()
        hist.add_many([0.01 * (i + 1) for i in range(500)])
        summary = hist.summary(E2E_PERCENTILES)
        for p in E2E_PERCENTILES:
            key = f"p{f'{p:g}'.replace('.', '')}"
            assert summary[key] == hist.percentile(p)

    @settings(max_examples=80, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.floats(min_value=1e-7, max_value=1e4, allow_nan=False,
                          allow_infinity=False),
                st.integers(min_value=1, max_value=60),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_weighted_add_is_bit_equal_to_repeated_adds(self, runs):
        """``add(value, count)`` leaves the state -- the float total
        included, so the mean too -- exactly as ``count`` single adds do."""
        weighted, single = LatencyHistogram(), LatencyHistogram()
        for value, count in runs:
            weighted.add(value, count)
            for _ in range(count):
                single.add(value)
        assert hist_state(weighted) == hist_state(single)
        assert weighted.summary(E2E_PERCENTILES) == single.summary(E2E_PERCENTILES)

    def test_weighted_add_rejects_count_below_one(self):
        hist = LatencyHistogram()
        for count in (0, -3):
            with pytest.raises(ValueError):
                hist.add(0.5, count)
        assert len(hist) == 0 and hist.counts == {}


# ---------------------------------------------------------------------------
# Chunked arrival synthesis: byte-identical sequences, any chunk size
# ---------------------------------------------------------------------------
#: SHA-256 over the per-transaction (src, dst, tx_id, size, submitted_at)
#: arrival sequence of the reference spec below -- recorded from the
#: pre-chunking per-transaction client path. The fast path must reproduce it bit
#: for bit; a change here means simulated behaviour moved.
ARRIVAL_DIGEST = "7c3bc064f00a0d4c598609250a120674561040e8837c98a322e1c6a6e85463f7"
ARRIVAL_TXS = 1939


def digest_spec():
    return WorkloadSpec(
        classes=(
            ClientClassSpec(name="mobile", population=40_000,
                            rate_per_user=0.004,
                            mmpp=((0.5, 2.0), (2.0, 1.0))),
            ClientClassSpec(name="api", population=10_000,
                            rate_per_user=0.01),
        ),
        keyspace=64,
        zipf_s=1.0,
        capacity_txs=200,
        policy="drop",
    )


def run_arrival_capture(duration, seed=3):
    """Digest of the per-transaction client arrival stream plus the
    workload summary, under whatever INGEST_CHUNK_TXS is currently set."""
    from repro.consensus.tags import CLIENT_TX_TAG

    spec = digest_spec()
    config = ProtocolConfig()
    cluster = Cluster(
        n=7, mode="kauri", scenario="national", config=config, seed=seed,
        workload_factory=make_workload_factory(spec, config),
    )
    harness = WorkloadHarness(cluster, spec, seed=seed)
    seen = []

    def observer(kind, msg, time):
        if (kind == "send" and msg.tag == CLIENT_TX_TAG
                and isinstance(msg.payload, list)):
            for item in msg.payload:
                submitted_at = round(item.submitted_at, 9)
                for tx_id in item.tx_ids():
                    seen.append((msg.src, msg.dst, tx_id, item.size,
                                 submitted_at))

    cluster.network.observers.append(observer)
    cluster.start()
    harness.start()
    cluster.run(duration=duration)
    digest = hashlib.sha256(repr(seen).encode()).hexdigest()
    return digest, len(seen), harness.summary()


DEFAULT_CHUNK_TXS = workload_module.INGEST_CHUNK_TXS


@pytest.fixture
def chunk_size(monkeypatch):
    def set_chunk(value):
        monkeypatch.setattr(
            workload_module, "INGEST_CHUNK_TXS",
            DEFAULT_CHUNK_TXS if value is None else value,
        )
    return set_chunk


class TestChunkedArrivals:
    def test_arrival_sequence_is_byte_identical_to_per_tx_path(self, chunk_size):
        chunk_size(None)
        digest, count, _ = run_arrival_capture(duration=8.0)
        assert count == ARRIVAL_TXS
        assert digest == ARRIVAL_DIGEST

    def test_arrivals_and_summary_invariant_to_chunk_size(self, chunk_size):
        results = {}
        for chunk in (1, 7, None):
            chunk_size(chunk)
            digest, count, summary = run_arrival_capture(duration=3.0)
            results[chunk] = (digest, count, summary)
        baseline = results[None]
        assert baseline[1] > 0
        for chunk in (1, 7):
            assert results[chunk] == baseline


# ---------------------------------------------------------------------------
# Commit accounting: one weighted add per run == one add per transaction
# ---------------------------------------------------------------------------
class PerTxAccounting:
    """Oracle: ``WorkloadHarness._on_commit`` as it was before commits were
    accounted per run -- a dict lookup, a bisect and two histogram adds for
    every committed transaction. Reads the harness's epoch arrays, keeps
    its own histograms and SLO counters."""

    def __init__(self, harness):
        self.harness = harness
        self.total = LatencyHistogram()
        self.hists = {state.client_id: LatencyHistogram() for state in harness.classes}
        self.within_slo = {state.client_id: 0 for state in harness.classes}

    def on_commit(self, record, block):
        by_client = self.harness._class_by_client
        for tx_id in block.tx_ids:
            state = by_client.get(tx_id[0])
            if state is None:
                continue
            index = bisect_right(state.submit_seqs, tx_id[1]) - 1
            if index < 0:
                continue
            latency = record.time - state.submit_times[index]
            self.hists[tx_id[0]].add(latency)
            if latency <= state.slo_target_s:
                self.within_slo[tx_id[0]] += 1
            self.total.add(latency)

    def assert_matches(self):
        harness = self.harness
        assert hist_state(harness._latency_hist) == hist_state(self.total)
        for state in harness.classes:
            assert hist_state(state.hist) == hist_state(self.hists[state.client_id])
            assert state.within_slo == self.within_slo[state.client_id]


def test_run_accounting_matches_per_tx_oracle():
    spec = digest_spec()
    config = ProtocolConfig()
    cluster = Cluster(
        n=7, mode="kauri", scenario="national", config=config, seed=3,
        workload_factory=make_workload_factory(spec, config),
    )
    harness = WorkloadHarness(cluster, spec, seed=3)
    oracle = PerTxAccounting(harness)
    cluster.metrics.commit_listeners.append(oracle.on_commit)
    cluster.start()
    harness.start()
    cluster.run(duration=4.0)
    assert harness.committed_txs > 500
    # Real blocks mix both classes and cut ticks across block boundaries.
    assert all(state.hist.count > 0 for state in harness.classes)
    oracle.assert_matches()

    # A block no proposer would build: ids of a client the harness does not
    # know, a sequence number before the first tick, epochs visited out of
    # order, the open-ended last epoch, and the classes interleaved.
    mobile, api = (state.client_id for state in harness.classes)
    seqs = harness.classes[0].submit_seqs
    assert len(seqs) > 3
    last = seqs[-1]
    block = SimpleNamespace(tx_ids=(
        (999, 0), (999, 1), (mobile, -1),
        (mobile, last), (mobile, last + 1), (mobile, last + 10_000),
        (mobile, seqs[2]), (mobile, seqs[2] - 1), (mobile, seqs[1]),
        (api, 0), (mobile, 0), (api, 1), (api, 1),
    ))
    record = SimpleNamespace(time=cluster.sim.now + 1.0)
    before = harness.committed_txs
    harness._on_commit(record, block)
    oracle.on_commit(record, block)
    assert harness.committed_txs == before + 10
    oracle.assert_matches()
