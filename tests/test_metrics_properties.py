"""Property-based tests for metrics invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.block import GENESIS_HASH, Block
from repro.runtime.metrics import Metrics
from repro.sim.engine import Simulator

commit_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=99.0, allow_nan=False),
        st.integers(min_value=1, max_value=500),  # txs
    ),
    min_size=1,
    max_size=40,
)


def build_metrics(specs):
    sim = Simulator()
    sim.schedule(100.0, lambda: None)
    sim.run()
    metrics = Metrics(sim)
    for height, (time, txs) in enumerate(sorted(specs), start=1):
        block = Block.create(
            height, 0, GENESIS_HASH, 0, txs * 512, txs, max(0.0, time - 0.5),
            salt=height,
        )
        metrics.on_commit(0, block, time)
    return metrics


@settings(max_examples=50, deadline=None)
@given(commit_specs)
def test_bucket_series_sums_to_total(specs):
    """The time series partitions the committed transactions exactly."""
    metrics = build_metrics(specs)
    series = metrics.timeseries_txs(bucket=2.5, end=100.0)
    total_from_series = sum(rate * 2.5 for _, rate in series)
    total_txs = sum(txs for _, txs in specs)
    assert abs(total_from_series - total_txs) < 1e-6


@settings(max_examples=50, deadline=None)
@given(commit_specs)
def test_window_throughput_consistent_with_events(specs):
    metrics = build_metrics(specs)
    full = metrics.throughput_txs(0.0, 100.0) * 100.0
    assert abs(full - sum(t for _, t in specs)) < 1e-6
    # splitting the window partitions throughput mass
    first = metrics.throughput_txs(0.0, 50.0) * 50.0
    second = metrics.throughput_txs(50.0, 100.0) * 50.0
    boundary = sum(txs for time, txs in specs if abs(time - 50.0) < 1e-12)
    assert first + second >= full - 1e-6
    assert first + second <= full + boundary + 1e-6


@settings(max_examples=50, deadline=None)
@given(commit_specs)
def test_latency_stats_ordering(specs):
    metrics = build_metrics(specs)
    stats = metrics.latency_stats()
    assert 0 <= stats["p50"] <= stats["p95"] <= stats["max"]
    assert stats["mean"] <= stats["max"]
    assert stats["count"] == len(specs)


@settings(max_examples=30, deadline=None)
@given(commit_specs)
def test_records_heights_unique_and_sorted(specs):
    metrics = build_metrics(specs)
    records = metrics.records()
    heights = [r.height for r in records]
    assert heights == sorted(set(heights))
