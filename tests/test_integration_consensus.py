"""End-to-end integration tests: full deployments reaching consensus.

Small system sizes and short horizons keep these fast; the benchmarks
exercise paper-scale deployments.
"""

import pytest

from repro import Cluster, ProtocolConfig, KB
from repro.config import NATIONAL


def run_cluster(
    n=7, mode="kauri", scenario="national", duration=5.0, seed=0, **kwargs
):
    cluster = Cluster(n=n, mode=mode, scenario=scenario, seed=seed, **kwargs)
    cluster.start()
    cluster.run(duration=duration)
    cluster.check_agreement()
    return cluster


@pytest.mark.parametrize("mode", ["kauri", "kauri-np", "hotstuff-secp", "hotstuff-bls"])
def test_all_modes_commit_blocks(mode):
    cluster = run_cluster(mode=mode)
    assert cluster.metrics.committed_blocks > 0
    assert len(cluster.metrics.view_changes) == 0


def test_every_correct_replica_commits_the_same_chain():
    cluster = run_cluster(n=13)
    heights = [node.committed_height for node in cluster.nodes]
    assert max(heights) > 0
    # replicas may lag by in-flight instances, but chains must agree
    reference = {}
    for node in cluster.nodes:
        for block in node.store.commit_log:
            reference.setdefault(block.height, block.hash)
            assert reference[block.height] == block.hash


def test_commit_heights_are_contiguous():
    cluster = run_cluster()
    records = cluster.metrics.records()
    assert [r.height for r in records] == list(range(1, len(records) + 1))


def test_latency_bounded_below_by_network():
    """A commit needs at least 4 dissemination/aggregation sweeps."""
    cluster = run_cluster(scenario="national")
    stats = cluster.metrics.latency_stats()
    assert stats["p50"] >= 4 * NATIONAL.rtt


def test_deterministic_same_seed():
    a = run_cluster(seed=42)
    b = run_cluster(seed=42)
    ra = [(r.height, r.block_hash, r.time) for r in a.metrics.records()]
    rb = [(r.height, r.block_hash, r.time) for r in b.metrics.records()]
    assert ra == rb
    assert a.sim.events_processed == b.sim.events_processed


def test_different_seeds_still_agree():
    for seed in (1, 2, 3):
        run_cluster(seed=seed)  # check_agreement inside


def test_kauri_outperforms_kauri_np():
    """§7.4: pipelining is what makes trees pay off."""
    kauri = run_cluster(mode="kauri", scenario="global", n=13, duration=30.0)
    kauri_np = run_cluster(mode="kauri-np", scenario="global", n=13, duration=30.0)
    assert (
        kauri.metrics.committed_blocks > 1.5 * kauri_np.metrics.committed_blocks
    )


def test_tree_beats_star_in_constrained_bandwidth():
    """§7.4: the global scenario penalises the star's leader uplink."""
    kauri = run_cluster(mode="kauri", scenario="global", n=31, duration=30.0)
    hotstuff = run_cluster(mode="hotstuff-secp", scenario="global", n=31, duration=30.0)
    assert (
        kauri.metrics.throughput_txs() > 2 * hotstuff.metrics.throughput_txs()
    )


def test_smaller_blocks_lower_latency():
    small = run_cluster(
        scenario="global", duration=20.0, config=ProtocolConfig(block_size=32 * KB)
    )
    large = run_cluster(
        scenario="global", duration=20.0, config=ProtocolConfig(block_size=1024 * KB)
    )
    assert (
        small.metrics.latency_stats()["p50"] < large.metrics.latency_stats()["p50"]
    )


def test_explicit_stretch_is_respected():
    cluster = run_cluster(config=ProtocolConfig(stretch=2.0))
    assert cluster.metrics.committed_blocks > 0


def test_poisson_workload_partial_blocks():
    from repro.runtime.clients import MempoolWorkload
    from repro.runtime.workload import ClientClassSpec, WorkloadHarness, WorkloadSpec

    config = ProtocolConfig(block_size=100 * KB)
    cluster = Cluster(
        n=7,
        mode="kauri",
        scenario="national",
        config=config,
        workload_factory=lambda node_id: MempoolWorkload(config),
    )
    spec = WorkloadSpec(classes=(
        ClientClassSpec(name="poisson", population=1, rate_per_user=500.0),
    ))
    harness = WorkloadHarness(cluster, spec)
    cluster.start()
    harness.start()
    cluster.run(duration=10.0)
    cluster.check_agreement()
    records = cluster.metrics.records()
    committed_txs = sum(r.num_txs for r in records)
    assert 0 < committed_txs
    # arrivals bound the committed load
    assert committed_txs <= 500.0 * cluster.sim.now * 1.1
    assert any(r.payload_size < config.block_size for r in records)


def test_max_commits_stop_condition():
    cluster = Cluster(n=7, mode="kauri", scenario="national")
    cluster.start()
    cluster.run(duration=60.0, max_commits=5)
    assert cluster.metrics.committed_blocks >= 5
    assert cluster.sim.now < 60.0


def test_run_requires_stop_condition():
    """``max_commits`` alone is refused: a deployment that cannot commit k
    blocks never runs out of events (its pacemakers keep timing out), so
    it would run forever. The cluster is started and healthy, so a run
    that is wrongly accepted commits its 3 blocks and returns."""
    from repro.errors import ConfigError

    cluster = Cluster(n=7, mode="kauri", scenario="national")
    cluster.start()
    for stop in ({}, {"max_commits": 3}):
        with pytest.raises(ConfigError, match="max_commits only stops earlier"):
            cluster.run(**stop)
    assert cluster.metrics.committed_blocks == 0


def test_cluster_validation():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        Cluster(n=3)
    with pytest.raises(ConfigError):
        Cluster(n=None)
    with pytest.raises(ConfigError):
        Cluster(n=7, scenario="lunar")
    with pytest.raises(ConfigError):
        Cluster(n=7, mode="raft")
