"""Unit tests for scenario and deployment configuration."""

import pytest

from repro.config import (
    GLOBAL,
    HOTSTUFF_TIMEOUT,
    KAURI_TIMEOUT,
    KB,
    NATIONAL,
    REGIONAL,
    SCENARIOS,
    ClusterParams,
    NetworkParams,
    ProtocolConfig,
    default_root_fanout,
    max_faults,
    mbps,
    ms,
    quorum_size,
    resilientdb_clusters,
)
from repro.errors import ConfigError


def test_paper_scenarios_match_section_7_1():
    assert GLOBAL.rtt == pytest.approx(0.200)
    assert GLOBAL.bandwidth_bps == pytest.approx(25e6)
    assert REGIONAL.rtt == pytest.approx(0.100)
    assert REGIONAL.bandwidth_bps == pytest.approx(100e6)
    assert NATIONAL.rtt == pytest.approx(0.010)
    assert NATIONAL.bandwidth_bps == pytest.approx(1000e6)
    assert set(SCENARIOS) == {"global", "regional", "national"}


def test_propagation_delay_is_half_rtt():
    assert GLOBAL.propagation_delay == pytest.approx(0.100)


def test_network_params_validation():
    with pytest.raises(ConfigError):
        NetworkParams("bad", rtt=-1.0, bandwidth_bps=1.0)
    with pytest.raises(ConfigError):
        NetworkParams("bad", rtt=1.0, bandwidth_bps=0.0)


def test_with_rtt_and_bandwidth_builders():
    tweaked = GLOBAL.with_rtt(ms(400)).with_bandwidth_bps(mbps(50))
    assert tweaked.rtt == pytest.approx(0.4)
    assert tweaked.bandwidth_bps == pytest.approx(50e6)
    assert GLOBAL.rtt == pytest.approx(0.2)  # original untouched


@pytest.mark.parametrize(
    "n,f", [(4, 1), (7, 2), (100, 33), (200, 66), (400, 133), (60, 19)]
)
def test_max_faults_classical_bft(n, f):
    assert max_faults(n) == f
    assert n >= 3 * f + 1
    assert quorum_size(n) == n - f


def test_max_faults_rejects_empty_system():
    with pytest.raises(ConfigError):
        max_faults(0)


@pytest.mark.parametrize(
    "n,height,fanout",
    [(100, 2, 10), (200, 2, 14), (400, 2, 20), (100, 3, 5)],
)
def test_default_root_fanout_matches_paper(n, height, fanout):
    # §7.1: N=100 -> 10, N=200 -> 14, N=400 -> 20 (h=2); §7.8: N=100, h=3 -> 5
    assert default_root_fanout(n, height) == fanout


def test_default_root_fanout_validation():
    with pytest.raises(ConfigError):
        default_root_fanout(100, 0)
    with pytest.raises(ConfigError):
        default_root_fanout(1, 2)


def test_protocol_config_defaults():
    cfg = ProtocolConfig()
    assert cfg.block_size == 250 * KB
    assert cfg.txs_per_block == (250 * KB) // 512
    assert cfg.stretch is None


def test_protocol_config_builders():
    cfg = ProtocolConfig().with_stretch(5.0).with_block_size(32 * KB)
    assert cfg.stretch == 5.0
    assert cfg.block_size == 32 * KB


def test_protocol_config_validation():
    with pytest.raises(ConfigError):
        ProtocolConfig(block_size=0)
    with pytest.raises(ConfigError):
        ProtocolConfig(stretch=-1.0)
    with pytest.raises(ConfigError):
        ProtocolConfig(base_timeout=0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "rtt, bandwidth_bps",
    [(NAN, 25e6), (INF, 25e6), (-0.1, 25e6), (0.2, NAN), (0.2, 0.0), (0.2, -1.0)],
)
def test_network_params_reject_nan_infinite_rtt_and_bad_bandwidth(rtt, bandwidth_bps):
    """Regression: a NaN RTT or bandwidth passed ``rtt < 0`` / ``bw <= 0``
    and a Kauri cluster on it ran with 0 commits and no error."""
    with pytest.raises(ConfigError):
        NetworkParams("x", rtt=rtt, bandwidth_bps=bandwidth_bps)
    with pytest.raises(ConfigError):
        GLOBAL.with_rtt(rtt).with_bandwidth_bps(bandwidth_bps)


def test_infinite_bandwidth_stays_valid():
    # Fig. 8's analytic floor: serialization takes no time.
    assert NetworkParams("inf", rtt=0.1, bandwidth_bps=INF).bandwidth_bps == INF


@pytest.mark.parametrize(
    "field, value",
    [
        ("stretch", NAN), ("stretch", INF),
        ("base_timeout", NAN), ("base_timeout", INF),
        ("timeout_cap", NAN), ("timeout_cap", 0.0),
        ("delta", NAN), ("delta", INF), ("delta", 0.0),
    ],
)
def test_protocol_config_rejects_nan_and_infinite_values(field, value):
    with pytest.raises(ConfigError, match=str(value)):
        ProtocolConfig(**{field: value})


def test_paper_timeout_calibration():
    # §7.10: 0.35 s for Kauri, 1.7 s for HotStuff-secp
    assert KAURI_TIMEOUT == pytest.approx(0.35)
    assert HOTSTUFF_TIMEOUT == pytest.approx(1.7)


class TestClusterParams:
    def test_resilientdb_deployment_shape(self):
        clusters = resilientdb_clusters()
        assert clusters.n == 60  # §7.9: N = 60
        assert len(clusters.cluster_sizes) == 6

    def test_cluster_assignment_contiguous(self):
        clusters = resilientdb_clusters(per_cluster=10)
        assert clusters.cluster_of(0) == 0
        assert clusters.cluster_of(9) == 0
        assert clusters.cluster_of(10) == 1
        assert clusters.cluster_of(59) == 5
        with pytest.raises(ConfigError):
            clusters.cluster_of(60)

    def test_intra_vs_inter_params(self):
        clusters = resilientdb_clusters()
        intra = clusters.params_between(0, 5)
        inter = clusters.params_between(0, 15)
        assert intra.rtt < inter.rtt
        assert intra.bandwidth_bps > inter.bandwidth_bps

    def test_inter_lookup_is_symmetric(self):
        clusters = resilientdb_clusters()
        assert clusters.params_between(3, 23) == clusters.params_between(23, 3)

    def test_oregon_is_best_connected(self):
        # §7.9 places the leader in the cluster with lowest RTT to others.
        clusters = resilientdb_clusters()
        mean_rtt = []
        for c in range(6):
            a = next(iter(clusters.members(c)))
            rtts = [
                clusters.params_between(a, next(iter(clusters.members(o)))).rtt
                for o in range(6)
                if o != c
            ]
            mean_rtt.append(sum(rtts) / len(rtts))
        assert mean_rtt[0] == min(mean_rtt)

    def test_members_ranges(self):
        clusters = resilientdb_clusters(per_cluster=10)
        assert list(clusters.members(0)) == list(range(10))
        assert list(clusters.members(5)) == list(range(50, 60))

    def test_missing_inter_params_raise(self):
        params = NetworkParams("x", rtt=0.01, bandwidth_bps=1e6)
        clusters = ClusterParams("broken", (2, 2), params, inter={})
        with pytest.raises(ConfigError):
            clusters.params_between(0, 3)
