"""Proof obligation of the pack subsystem: packs for the existing figures
compile to **byte-identical** ExperimentSpecs (same ``_encode_scenario``
cache keys) as the inline grids the figure generators used to build, so
the on-disk result cache and the golden RunReports keep hitting across
the refactor."""

import math

import pytest

from repro.runtime.horizon import adaptive_duration
from repro.config import (
    GLOBAL,
    KB,
    REGIONAL,
    SCENARIOS,
    NetworkParams,
    mbps,
    ms,
    resilientdb_clusters,
)
from repro.core.modes import mode_spec
from repro.runtime.sweep import ExperimentSpec, ResultCache, _encode_scenario
from repro.scenarios import compile_pack, load_pack

SCALES = (0.3, 1.0)


def assert_identical(grid, inline):
    __tracebackhide__ = True
    assert grid.specs == inline
    assert [s.key() for s in grid.specs] == [s.key() for s in inline]


@pytest.mark.parametrize("scale", SCALES)
def test_fig5_pack_matches_inline_grid(scale):
    grid = compile_pack(load_pack("fig5"), scale=scale, seed=0)
    inline = [
        ExperimentSpec(
            mode="kauri", scenario="global", n=100, block_size=kb * KB,
            stretch=float(stretch),
            duration=adaptive_duration("kauri", 100, GLOBAL, kb * KB, scale=scale),
            max_commits=int(200 * scale) or 20, seed=0,
        )
        for kb in (50, 100, 200, 250)
        for stretch in (1, 2, 4, 6, 8, 12, 16, 20)
    ]
    assert_identical(grid, inline)


@pytest.mark.parametrize("scale", SCALES)
def test_fig6_pack_matches_inline_grid(scale):
    grid = compile_pack(load_pack("fig6"), scale=scale, seed=0, observability=False)
    inline = [
        ExperimentSpec(
            mode=mode, scenario=scenario, n=n,
            duration=adaptive_duration(mode, n, SCENARIOS[scenario], 250 * KB, scale=scale),
            max_commits=int(150 * scale) or 15, seed=0, observability=False,
        )
        for scenario in ("national", "regional", "global")
        for n in (100, 200, 400)
        for mode in ("kauri", "kauri-np", "hotstuff-secp", "hotstuff-bls")
    ]
    assert_identical(grid, inline)


@pytest.mark.parametrize("scale", SCALES)
def test_fig7_pack_matches_inline_grid(scale):
    grid = compile_pack(load_pack("fig7"), scale=scale, seed=0)
    inline = [
        ExperimentSpec(
            mode=mode, scenario=params, n=100,
            duration=adaptive_duration(mode, 100, params, 250 * KB, scale=scale),
            max_commits=int(150 * scale) or 15, seed=0,
        )
        for rtt in (50, 100, 200, 300, 400)
        for mode, params in (
            (mode, REGIONAL.with_rtt(ms(rtt)))
            for mode in ("kauri", "hotstuff-secp")
        )
    ]
    assert_identical(grid, inline)


@pytest.mark.parametrize("scale", SCALES)
def test_fig8_pack_matches_inline_grid(scale):
    grid = compile_pack(load_pack("fig8"), scale=scale, seed=0)
    inline = [
        ExperimentSpec(
            mode=mode,
            scenario=NetworkParams(f"bw{bw}", rtt=ms(100), bandwidth_bps=mbps(bw)),
            n=100,
            duration=adaptive_duration(
                mode, 100,
                NetworkParams(f"bw{bw}", rtt=ms(100), bandwidth_bps=mbps(bw)),
                250 * KB, scale=scale,
            ),
            max_commits=int(100 * scale) or 10, seed=0,
        )
        for bw in (25, 50, 100, 1000)
        for mode in ("kauri", "hotstuff-secp", "hotstuff-bls")
    ]
    assert_identical(grid, inline)


@pytest.mark.parametrize("scale", SCALES)
def test_fig9_pack_matches_inline_grid(scale):
    grid = compile_pack(load_pack("fig9"), scale=scale, seed=0)
    inline = [
        ExperimentSpec(
            mode=mode, scenario="global", n=100, block_size=kb * KB,
            duration=adaptive_duration(mode, 100, GLOBAL, kb * KB, scale=scale),
            max_commits=int(150 * scale) or 15, seed=0,
        )
        for kb in (32, 64, 125, 250, 500, 1024)
        for mode in ("kauri", "hotstuff-secp", "hotstuff-bls")
    ]
    assert_identical(grid, inline)


@pytest.mark.parametrize("scale", SCALES)
def test_fig10_pack_matches_inline_grid(scale):
    grid = compile_pack(load_pack("fig10"), scale=scale, seed=0)
    systems = [
        ("kauri-h2", "kauri", 2),
        ("kauri-h3", "kauri", 3),
        ("hotstuff-secp", "hotstuff-secp", 1),
        ("hotstuff-bls", "hotstuff-bls", 1),
    ]
    inline = [
        ExperimentSpec(
            mode=mode,
            scenario=NetworkParams(f"bw{bw}", rtt=ms(100), bandwidth_bps=mbps(bw)),
            n=100,
            height=max(height, 2) if mode_spec(mode).uses_tree else 2,
            duration=adaptive_duration(
                mode, 100,
                NetworkParams(f"bw{bw}", rtt=ms(100), bandwidth_bps=mbps(bw)),
                250 * KB, height=max(height, 1), scale=scale,
            ),
            max_commits=int(150 * scale) or 15, seed=0,
        )
        for bw in (25, 50, 100, 1000)
        for _, mode, height in systems
    ]
    assert_identical(grid, inline)
    assert [cell.label for cell in grid.cells] == [
        label for bw in (25, 50, 100, 1000) for label, _, _ in systems
    ]


@pytest.mark.parametrize("scale", SCALES)
def test_fig11_pack_matches_inline_grid(scale):
    grid = compile_pack(load_pack("fig11"), scale=scale, seed=0)
    clusters = resilientdb_clusters(per_cluster=10)
    inline = [
        ExperimentSpec(
            mode=mode, scenario=clusters, n=clusters.n, duration=scale * 120.0,
            max_commits=int(200 * scale) or 20, seed=0,
        )
        for mode in ("kauri", "kauri-np", "hotstuff-secp", "hotstuff-bls")
    ]
    # ClusterParams carries dict-typed fields, so compare via cache keys
    # (the canonical encoding) rather than dataclass equality alone.
    assert [s.key() for s in grid.specs] == [s.key() for s in inline]
    assert grid.specs[0].n == 60


@pytest.mark.parametrize("scale", SCALES)
def test_depth_pack_matches_inline_grid(scale):
    grid = compile_pack(load_pack("depth"), scale=scale, seed=0)
    systems = [(f"kauri-h{h}", "kauri", h) for h in (2, 3, 4)] + [
        ("hotstuff-bls", "hotstuff-bls", 1)
    ]
    inline = [
        ExperimentSpec(
            mode=mode, scenario=GLOBAL, n=n,
            height=max(height, 2) if mode_spec(mode).uses_tree else 2,
            duration=adaptive_duration(
                mode, n, GLOBAL, 250 * KB, height=max(height, 1), scale=scale
            ),
            max_commits=int(60 * scale) or 6, seed=0,
        )
        for n in (200, 400, 1000)
        for _, mode, height in systems
    ]
    assert_identical(grid, inline)


def test_scenario_comparison_pack_matches_example_grid():
    # The example compiles at scale 0.5: 60-commit budget, 6-instance
    # horizons -- exactly the hand-rolled loop it replaced.
    grid = compile_pack(load_pack("scenario-comparison"), scale=0.5, seed=0)
    inline = [
        ExperimentSpec(
            mode=mode, scenario=scenario, n=31,
            duration=adaptive_duration(
                mode, 31, SCENARIOS[scenario], 250 * KB,
                instances=6.0, scale=0.5,
            ),
            max_commits=60, seed=0,
        )
        for scenario in ("national", "regional", "global")
        for mode in ("kauri", "kauri-np", "hotstuff-secp", "hotstuff-bls")
    ]
    assert_identical(grid, inline)


# ---------------------------------------------------------------------------
# _encode_scenario round-trips over every scenario form
# ---------------------------------------------------------------------------
def test_encode_scenario_string_form():
    assert _encode_scenario("global") == ["name", "global"]


def test_encode_scenario_params_form():
    params = NetworkParams("bw50", rtt=ms(100), bandwidth_bps=mbps(50))
    encoded = _encode_scenario(params)
    assert encoded[0] == "params"
    assert encoded == _encode_scenario(
        NetworkParams("bw50", rtt=ms(100), bandwidth_bps=mbps(50))
    )


def test_encode_scenario_cluster_form_is_stable():
    a = _encode_scenario(resilientdb_clusters(per_cluster=10))
    b = _encode_scenario(resilientdb_clusters(per_cluster=10))
    assert a == b and a[0] == "clusters"
    assert a != _encode_scenario(resilientdb_clusters(per_cluster=2))


def test_derived_scenario_keeps_base_name_but_changes_key():
    # The Figure 7 idiom: with_rtt keeps the name; the key must still
    # distinguish the derived point from the base scenario.
    derived = REGIONAL.with_rtt(ms(400))
    assert derived.name == REGIONAL.name
    assert _encode_scenario(derived) != _encode_scenario(REGIONAL)


def test_infinite_bandwidth_not_representable_in_specs():
    # fig8's analytic floor uses math.inf; it stays outside the spec/cache
    # vocabulary (JSON has no inf), which is why the floor is computed
    # analytically rather than as a pack cell.
    params = NetworkParams("inf", rtt=ms(100), bandwidth_bps=math.inf)
    assert math.isinf(params.bandwidth_bps)


# ---------------------------------------------------------------------------
# cache-key stability: pack-compiled and hand-built specs share cache entries
# ---------------------------------------------------------------------------
def test_pack_compiled_spec_hits_hand_built_cache_entry(tmp_path):
    from repro.runtime.experiment import run_experiment

    grid = compile_pack(load_pack("smoke"), scale=0.5, seed=0)
    spec = grid.specs[0]
    hand_built = ExperimentSpec(
        mode="kauri", scenario="national", n=7, duration=4.0,
        max_commits=20, seed=0,
    )
    assert spec == hand_built
    assert spec.key() == hand_built.key()

    cache = ResultCache(root=tmp_path)
    result = run_experiment(
        mode="kauri", scenario="national", n=7, duration=4.0,
        max_commits=20, seed=0,
    )
    cache.put(hand_built, result)
    hit = cache.get(spec)
    assert hit is not None
    assert hit.committed_blocks == result.committed_blocks
