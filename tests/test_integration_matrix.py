"""Cross-product smoke matrix: every mode in every scenario commits and
agrees. Broad behavioural coverage at small scale."""

import pytest

from repro import Cluster
from repro.core.modes import MODES

SCENARIOS = ("national", "regional", "global")


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_mode_scenario_matrix(mode, scenario):
    cluster = Cluster(n=7, mode=mode, scenario=scenario, seed=1)
    cluster.start()
    cluster.run(duration=30.0, max_commits=12)
    cluster.check_agreement()
    metrics = cluster.metrics
    assert metrics.committed_blocks > 0, (mode, scenario)
    assert metrics.max_view == 0, (mode, scenario)
    # throughput and latency are self-consistent
    stats = metrics.latency_stats()
    assert stats["count"] == metrics.committed_blocks
    assert 0 < stats["p50"] <= stats["max"]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_mode_survives_one_leader_crash(mode):
    cluster = Cluster(n=7, mode=mode, scenario="national", seed=2)
    cluster.crash_at(cluster.policy.leader_of(0), 4.0)
    cluster.start()
    cluster.run(duration=60.0)
    cluster.check_agreement()
    assert cluster.metrics.commit_gap_after(4.0) is not None, mode
    assert cluster.metrics.max_view >= 1


@pytest.mark.parametrize("mode", sorted(MODES))
def test_mode_deterministic(mode):
    def chain(seed):
        cluster = Cluster(n=7, mode=mode, scenario="national", seed=seed)
        cluster.start()
        cluster.run(duration=5.0, max_commits=8)
        return [r.block_hash for r in cluster.metrics.records()]

    assert chain(7) == chain(7)
