"""Unit tests for the §4.3 performance model."""

import math

import pytest

from repro.config import (
    GLOBAL, KB, NATIONAL, REGIONAL, NetworkParams, ProtocolConfig, default_root_fanout, ms,
)
from repro.core.perfmodel import PerfModel
from repro.crypto.costs import BLS_COSTS, SECP_COSTS
from repro.errors import ConfigError
from repro.runtime.horizon import model_for


def kauri_model(n=100, fanout=10, height=2, params=GLOBAL, block=250 * KB):
    return PerfModel.for_topology(n, height, fanout, params, block, BLS_COSTS)


def hotstuff_model(n=100, params=GLOBAL, block=250 * KB, costs=SECP_COSTS):
    return PerfModel.for_star(n, params, block, costs)


class TestSendingTime:
    def test_formula_fanout_block_over_bandwidth(self):
        """§4.3: sending time ≈ m · b / c."""
        model = kauri_model()
        expected = 10 * model.block_wire_size() * 8 / 25e6
        assert model.sending_time == pytest.approx(expected)

    def test_star_sending_time_scales_with_n(self):
        # BLS keeps the embedded QC constant-size, isolating the (n-1) factor;
        # with secp the per-proposal QC also grows with the quorum.
        assert hotstuff_model(n=400, costs=BLS_COSTS).sending_time == pytest.approx(
            hotstuff_model(n=100, costs=BLS_COSTS).sending_time * 399 / 99, rel=0.01
        )
        assert hotstuff_model(n=400).sending_time > hotstuff_model(
            n=100
        ).sending_time * 399 / 99

    def test_tree_cuts_sending_time_by_max_speedup(self):
        tree = kauri_model(n=400, fanout=20)
        star = hotstuff_model(n=400, costs=BLS_COSTS)
        assert star.sending_time / tree.sending_time == pytest.approx(
            tree.max_speedup, rel=0.01
        )


class TestMaxSpeedup:
    def test_paper_example(self):
        """§4.3: 'in a system of 400 nodes, organized in a tree with fanout
        20, the maximum speedup we can expect Kauri to offer is 19.95'."""
        assert kauri_model(n=400, fanout=20).max_speedup == pytest.approx(19.95)


class TestProcessingTime:
    def test_bls_processing_linear_in_fanout(self):
        small = kauri_model(fanout=5)
        large = kauri_model(fanout=20)
        assert large.processing_time > small.processing_time
        # O(m): the per-unit slope matches the verify+combine cost
        slope = (large.processing_time - small.processing_time) / 15
        assert slope == pytest.approx(
            BLS_COSTS.aggregate_verify_time + BLS_COSTS.combine_per_input_time
        )

    def test_secp_processing_linear_in_quorum(self):
        """§3.3.2: classical signatures need O(N) verifications."""
        small = hotstuff_model(n=100)
        large = hotstuff_model(n=400)
        assert large.processing_time > 3 * small.processing_time


class TestStretch:
    def test_remaining_time_formula(self):
        model = kauri_model()
        # §4.3's simple form ...
        assert model.remaining_time_paper == pytest.approx(
            2 * (GLOBAL.rtt + model.processing_time)
        )
        # ... plus the store-and-forward refinement for the lower level
        assert model.remaining_time == pytest.approx(
            model.remaining_time_paper + model.sending_time
        )
        # stars reduce to the paper's formula exactly
        star = hotstuff_model()
        assert star.remaining_time == pytest.approx(star.remaining_time_paper)

    def test_stretch_is_remaining_over_bottleneck(self):
        model = kauri_model()
        assert model.pipelining_stretch == pytest.approx(
            model.remaining_time / max(model.sending_time, model.processing_time)
        )

    def test_smaller_blocks_need_larger_stretch(self):
        """§7.3: 'with smaller block sizes, higher pipelining stretch values
        are needed'."""
        assert (
            kauri_model(block=50 * KB).pipelining_stretch
            > kauri_model(block=250 * KB).pipelining_stretch
        )

    def test_stretch_grows_with_rtt(self):
        """§7.5: the model-chosen stretch grows steeply with RTT (the paper
        reports 7 -> 33 over 50 -> 400 ms; the exact values depend on the
        measured processing times, the growth does not)."""
        low = kauri_model(params=REGIONAL.with_rtt(0.050))
        high = kauri_model(params=REGIONAL.with_rtt(0.400))
        assert high.pipelining_stretch > 2.5 * low.pipelining_stretch

    def test_national_scenario_cpu_vs_bandwidth(self):
        """High bandwidth shifts the bottleneck toward the CPU."""
        national = kauri_model(params=NATIONAL)
        global_ = kauri_model(params=GLOBAL)
        assert not global_.is_cpu_bound
        assert (
            national.processing_time / national.sending_time
            > global_.processing_time / global_.sending_time
        )


class TestDerivedParameters:
    def test_proposal_interval_at_ideal_stretch_is_round_share(self):
        model = kauri_model()
        stretch = model.pipelining_stretch
        interval = model.proposal_interval(stretch)
        assert interval == pytest.approx(model.round_time / (1 + stretch))

    def test_interval_decreases_with_stretch(self):
        model = kauri_model()
        assert model.proposal_interval(10) < model.proposal_interval(2)
        with pytest.raises(ConfigError):
            model.proposal_interval(-1)

    def test_expected_throughput_pipelined_vs_not(self):
        model = kauri_model()
        config = ProtocolConfig()
        assert model.expected_throughput_txs(config) > model.expected_throughput_txs(
            config, pipelined=False
        )

    def test_instance_latency_counts_four_rounds(self):
        model = kauri_model()
        assert model.instance_latency() > model.round_time
        assert model.instance_latency() < 4 * model.round_time + 1.0

    def test_suggested_timeout_scales_with_latency(self):
        """The §7.10 calibration: Kauri's timeout << HotStuff's in the same
        scenario (they used 0.35 s vs 1.7 s)."""
        kauri = kauri_model()
        hotstuff = hotstuff_model()
        assert kauri.suggested_timeout(0.1) < hotstuff.suggested_timeout(0.1)

    def test_suggested_delta_positive(self):
        assert kauri_model().suggested_delta() > 0

    def test_infinite_bandwidth_latency_floors(self):
        """Fig. 8's analytical floors: with infinite bandwidth HotStuff's
        latency is below Kauri's but above a quarter of it (the paper: at
        best half, one hop against h=2 hops per sweep)."""
        params = NetworkParams("inf", rtt=ms(100), bandwidth_bps=math.inf)
        kauri = model_for("kauri", 100, params, 250 * KB).instance_latency()
        secp = model_for("hotstuff-secp", 100, params, 250 * KB).instance_latency()
        assert 0.25 * kauri < secp < kauri


class TestExpectedSpeedups:
    """The model must predict the paper's headline comparisons."""

    def test_kauri_beats_hotstuff_in_global_scenario(self):
        kauri = kauri_model(n=400, fanout=20)
        hotstuff = hotstuff_model(n=400)
        config = ProtocolConfig()
        ratio = kauri.expected_throughput_txs(config) / hotstuff.expected_throughput_txs(config)
        # §7.4: observed 28.2x at N=400 global (model predicted ~30)
        assert 15 < ratio < 45

    def test_speedup_grows_with_n(self):
        config = ProtocolConfig()

        def ratio(n, fanout):
            kauri = kauri_model(n=n, fanout=fanout)
            hotstuff = hotstuff_model(n=n)
            return kauri.expected_throughput_txs(config) / hotstuff.expected_throughput_txs(config)

        assert ratio(100, 10) < ratio(200, 14) < ratio(400, 20)

    def test_projection_to_1000_validators(self):
        """§1: Diem asks for 500-1,000 validators. Projected to N=1000
        (global, 250 KB blocks), only pipelined trees keep usable
        throughput, and §7.8's remedy, a taller tree, kicks in. The
        measured N=1000 points are the ``depth`` pack's expect rows."""
        config = ProtocolConfig()
        rows = []
        for n in (100, 200, 400, 700, 1000):
            star = PerfModel.for_star(n, GLOBAL, config.block_size, SECP_COSTS)
            entries = {"hotstuff-secp": star.expected_throughput_txs(config)}
            for height in (2, 3):
                model = PerfModel.for_tree_shape(
                    n, height, default_root_fanout(n, height), GLOBAL,
                    config.block_size, BLS_COSTS,
                )
                entries[f"kauri-h{height}"] = model.expected_throughput_txs(config)
            rows.append((
                n,
                round(entries["hotstuff-secp"], 1),
                round(entries["kauri-h2"], 1),
                round(entries["kauri-h3"], 1),
                round(entries["kauri-h3"] / max(entries["hotstuff-secp"], 1e-9), 1),
            ))
        by_n = {row[0]: row for row in rows}
        # HotStuff collapses towards zero at 1000 validators
        assert by_n[1000][1] < 0.1 * by_n[100][1]
        # deeper trees recover throughput at scale (§7.8's remedy)
        assert by_n[1000][3] > by_n[1000][2]
        # the speedup keeps growing with N
        speedups = [row[4] for row in rows]
        assert speedups == sorted(speedups)
        assert by_n[1000][4] > 50


class TestTreeShapeAwareness:
    def test_balanced_paper_shapes_unchanged(self):
        """For the paper's N=100/200/400 h=2 shapes the leaves fan out
        narrower than the root, so the bottleneck stays at the root."""
        for n in (100, 200, 400):
            from repro.config import default_root_fanout

            fanout = default_root_fanout(n, 2)
            flat = PerfModel.for_topology(n, 2, fanout, GLOBAL, 250 * KB, BLS_COSTS)
            aware = PerfModel.for_tree_shape(n, 2, fanout, GLOBAL, 250 * KB, BLS_COSTS)
            assert aware.bottleneck_time == pytest.approx(flat.bottleneck_time)

    def test_skewed_shape_raises_bottleneck(self):
        """N=31, h=3, fanout 2: the last interior level fans out 6-wide;
        its forwarding time, not the root's sending time, binds."""
        aware = PerfModel.for_tree_shape(31, 3, 2, GLOBAL, 250 * KB, BLS_COSTS)
        naive = PerfModel.for_topology(31, 3, 2, GLOBAL, 250 * KB, BLS_COSTS)
        assert aware.forwarding_time > naive.sending_time
        assert aware.bottleneck_time > naive.bottleneck_time
        assert aware.pipelining_stretch < naive.pipelining_stretch

    def test_bottleneck_never_below_root_fanout(self):
        model = PerfModel.for_topology(
            100, 2, 10, GLOBAL, 250 * KB, BLS_COSTS, bottleneck_fanout=3
        )
        assert model.effective_bottleneck_fanout == 10

    def test_invalid_bottleneck_rejected(self):
        with pytest.raises(ConfigError):
            PerfModel.for_topology(
                100, 2, 10, GLOBAL, 250 * KB, BLS_COSTS, bottleneck_fanout=0
            )


class TestValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            kauri_model(n=1)
        with pytest.raises(ConfigError):
            kauri_model(fanout=0)
        with pytest.raises(ConfigError):
            kauri_model(fanout=200, n=100)
        with pytest.raises(ConfigError):
            kauri_model(height=0)
