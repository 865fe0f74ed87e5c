"""Unit tests for the metrics collector."""

import pytest

from repro.consensus.block import Block, GENESIS_HASH
from repro.runtime.metrics import Metrics, percentile
from repro.sim.engine import Simulator


def block(height, created_at=0.0, num_txs=10, salt=0):
    return Block.create(
        height, 0, GENESIS_HASH, 0, 1000, num_txs, created_at, salt=salt
    )


@pytest.fixture
def metrics():
    sim = Simulator()
    sim.schedule(100.0, lambda: None)
    sim.run()  # now = 100
    return Metrics(sim)


def test_first_commit_wins(metrics):
    b = block(1, created_at=1.0)
    metrics.on_commit(0, b, 3.0)
    metrics.on_commit(1, b, 4.0)  # later replica: counted per node only
    assert metrics.committed_blocks == 1
    rec = metrics.first_commits[1]
    assert rec.time == 3.0
    assert rec.latency == pytest.approx(2.0)
    assert rec.first_committer == 0
    assert metrics.commits_per_node[0] == 1
    assert metrics.commits_per_node[1] == 1


def test_throughput_over_window(metrics):
    for height in range(1, 6):
        metrics.on_commit(0, block(height, num_txs=100), 10.0 * height)
    # 5 commits of 100 txs in [0, 100] -> 5 tx/s
    assert metrics.throughput_txs() == pytest.approx(5.0)
    # window [25, 45]: commits at 30, 40 -> 200 txs / 20 s
    assert metrics.throughput_txs(25.0, 45.0) == pytest.approx(10.0)
    assert metrics.throughput_blocks(25.0, 45.0) == pytest.approx(0.1)
    assert metrics.throughput_txs(90.0, 90.0) == 0.0


def test_latency_stats(metrics):
    for height, latency in enumerate([1.0, 2.0, 3.0, 4.0], start=1):
        metrics.on_commit(0, block(height, created_at=0.0), latency)
    stats = metrics.latency_stats()
    assert stats["mean"] == pytest.approx(2.5)
    assert stats["p50"] == pytest.approx(2.0)
    assert stats["max"] == pytest.approx(4.0)
    assert stats["count"] == 4


def test_latency_stats_empty(metrics):
    assert metrics.latency_stats()["count"] == 0


def test_timeseries_buckets(metrics):
    metrics.on_commit(0, block(1, num_txs=50), 0.5)
    metrics.on_commit(0, block(2, num_txs=50), 1.5)
    metrics.on_commit(0, block(3, num_txs=100), 1.9)
    series = metrics.timeseries_txs(bucket=1.0, end=3.0)
    assert series[0] == (0.0, pytest.approx(50.0))
    assert series[1] == (1.0, pytest.approx(150.0))
    assert series[2] == (2.0, pytest.approx(0.0))


def test_timeseries_validation(metrics):
    with pytest.raises(ValueError):
        metrics.timeseries_txs(bucket=0.0)


def test_commit_gap_after(metrics):
    metrics.on_commit(0, block(1), 10.0)
    metrics.on_commit(0, block(2), 30.0)
    assert metrics.commit_gap_after(15.0) == pytest.approx(15.0)
    assert metrics.commit_gap_after(10.0) == pytest.approx(0.0)
    assert metrics.commit_gap_after(31.0) is None


def test_view_changes_and_max_view(metrics):
    assert metrics.max_view == 0
    metrics.on_view_change(3, 1, 5.0)
    metrics.on_view_change(4, 2, 6.0)
    assert metrics.max_view == 2
    assert len(metrics.view_changes) == 2


def test_records_sorted_by_height(metrics):
    metrics.on_commit(0, block(2), 2.0)
    metrics.on_commit(0, block(1), 2.5)
    assert [r.height for r in metrics.records()] == [1, 2]


class TestPercentile:
    def test_basic(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 100) == 5.0
        assert percentile(values, 95) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


# ---------------------------------------------------------------------------
# Half-open window convention [lo, hi)
# ---------------------------------------------------------------------------
def test_window_boundaries_are_half_open(metrics):
    """Regression: closed intervals (lo <= t <= hi) double-counted commits
    landing exactly on a shared boundary of two adjacent windows."""
    metrics.on_commit(0, block(1, num_txs=100), 10.0)
    metrics.on_commit(0, block(2, num_txs=100), 20.0)
    metrics.on_commit(0, block(3, num_txs=100), 25.0)
    # The commit at exactly t=20 belongs to [20, 30), not [10, 20).
    assert metrics.throughput_txs(10.0, 20.0) == pytest.approx(10.0)
    assert metrics.throughput_txs(20.0, 30.0) == pytest.approx(20.0)
    assert len(metrics.latencies(10.0, 20.0)) == 1
    assert len(metrics.latencies(20.0, 30.0)) == 2
    assert metrics.throughput_blocks(10.0, 20.0) == pytest.approx(0.1)


def test_adjacent_windows_partition_commits(metrics):
    """Tx counts over adjacent half-open windows sum to the whole window."""
    times = [5.0, 10.0, 10.0 + 1e-12, 15.0, 20.0]
    for height, when in enumerate(times, start=1):
        metrics.on_commit(0, block(height, num_txs=10), when)
    whole = metrics.throughput_txs(0.0, 25.0) * 25.0
    for cut in (5.0, 10.0, 12.5, 20.0):
        split = (
            metrics.throughput_txs(0.0, cut) * cut
            + metrics.throughput_txs(cut, 25.0) * (25.0 - cut)
        )
        assert split == pytest.approx(whole), cut


def test_timeseries_event_at_horizon_extends_series(metrics):
    """Regression: a commit at exactly t == end was clamped into the last
    bucket instead of opening the next one."""
    metrics.on_commit(0, block(1, num_txs=50), 0.5)
    metrics.on_commit(0, block(2, num_txs=70), 2.0)
    series = metrics.timeseries_txs(bucket=1.0, end=2.0)
    assert series[0] == (0.0, pytest.approx(50.0))
    assert series[1] == (1.0, pytest.approx(0.0))
    # The t=2.0 commit opens bucket [2, 3), appended past the horizon.
    assert series[2] == (2.0, pytest.approx(70.0))
