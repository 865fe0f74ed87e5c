"""Scenario-pack loader and compiler: validation errors and expansion rules."""

import json

import pytest

from repro.errors import ConfigError
from repro.scenarios import (
    PackError,
    catalog,
    compile_pack,
    load_pack,
    load_pack_file,
    pack_names,
    parse_pack,
    validate_pack,
)
from repro.scenarios.loader import parse_pack_text


def make_pack(defaults=None, axes=None, name="t", set_=None):
    grid = {}
    if set_:
        grid["set"] = set_
    if axes:
        grid["axes"] = axes
    return {
        "pack": {"name": name, "title": "t", "schema": 1},
        "defaults": defaults or {},
        "grid": [grid],
    }


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------
def test_pack_error_is_config_error():
    assert issubclass(PackError, ConfigError)


def test_missing_header_rejected():
    with pytest.raises(PackError, match=r"missing \[pack\] header"):
        parse_pack({"defaults": {}})


def test_unknown_top_level_key_rejected():
    with pytest.raises(PackError, match="unknown key 'grids'"):
        parse_pack({"pack": {"name": "t"}, "grids": []})


def test_unknown_defaults_key_suggests_close_match():
    data = make_pack(defaults={"blok_kb": 250})
    with pytest.raises(PackError, match="did you mean 'block_kb'"):
        parse_pack(data)


def test_schema_version_mismatch_rejected():
    data = make_pack()
    data["pack"]["schema"] = 99
    with pytest.raises(PackError, match="unsupported schema version 99"):
        parse_pack(data)


def test_empty_axis_rejected():
    with pytest.raises(PackError, match="non-empty list"):
        parse_pack(make_pack(axes={"mode": []}))


def test_composite_axis_requires_tables():
    # "system" is not a cell field, so scalar values make no sense there.
    with pytest.raises(PackError, match="composite axis"):
        parse_pack(make_pack(axes={"system": ["kauri"]}))


def test_composite_axis_entries_checked_against_cell_fields():
    axes = {"system": [{"label": "a", "moed": "kauri"}]}
    with pytest.raises(PackError, match="did you mean 'mode'"):
        parse_pack(make_pack(axes=axes))


def test_scenario_axis_accepts_netem_tables():
    # An axis named after a cell field binds that field whatever the value
    # shape -- here scenario tables (the Figure 7/8 idiom).
    axes = {
        "scenario": [{"base": "regional", "rtt_ms": 50}],
        "mode": ["kauri"],
    }
    pack = parse_pack(make_pack(defaults={"n": 31, "duration": 10.0}, axes=axes))
    grid = compile_pack(pack)
    assert len(grid.cells) == 1
    assert grid.specs[0].scenario.rtt == pytest.approx(0.050)


def test_json_packs_parse_identically():
    data = make_pack(defaults={"n": 7, "duration": 5.0, "scenario": "national"},
                     axes={"mode": ["kauri"]})
    pack = parse_pack_text(json.dumps(data), fmt="json")
    assert pack.name == "t"
    assert compile_pack(pack).specs == compile_pack(parse_pack(data)).specs


def test_pack_file_name_must_match_stem(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(make_pack(name="t")))
    with pytest.raises(PackError, match="does not match the file stem"):
        load_pack_file(path)


# ---------------------------------------------------------------------------
# value validation (compile time)
# ---------------------------------------------------------------------------
def test_unknown_mode_lists_registry():
    pack = parse_pack(make_pack(defaults={"n": 7, "duration": 5.0, "scenario": "national"},
                                axes={"mode": ["hotstuf-secp"]}))
    with pytest.raises(PackError, match="unknown mode 'hotstuf-secp'"):
        compile_pack(pack)


def test_unknown_scenario_name_rejected():
    pack = parse_pack(make_pack(
        defaults={"n": 7, "duration": 5.0, "mode": "kauri",
                  "scenario": "intergalactic"}))
    with pytest.raises(PackError, match="unknown scenario 'intergalactic'"):
        compile_pack(pack)


def test_impossible_quorum_rejected():
    # N=7 tolerates f=2; crashing three nodes can never commit again.
    pack = parse_pack(make_pack(defaults={
        "n": 7, "duration": 5.0, "mode": "kauri", "scenario": "national",
        "faults": [[1, 1.0], [2, 2.0], [3, 3.0]],
    }))
    with pytest.raises(PackError, match="impossible quorum"):
        compile_pack(pack)


def test_adaptive_duration_rejected_for_cluster_scenarios():
    pack = parse_pack(make_pack(defaults={
        "mode": "kauri", "duration": "adaptive",
        "scenario": {"clusters": "resilientdb", "per_cluster": 2},
    }))
    with pytest.raises(PackError, match="adaptive"):
        compile_pack(pack)


@pytest.mark.parametrize("key", ["rtt_ms", "bandwidth_mbps"])
def test_nan_link_parameter_of_a_derived_scenario_names_the_cell(key):
    """Regression: TOML's ``nan`` in a ``base``-form scenario was accepted
    and compiled to a deployment that never commits."""
    text = f"""
[pack]
name = "t"
title = "t"
schema = 1

[defaults]
n = 7
duration = 5.0
mode = "kauri"
scenario = {{ base = "global", {key} = nan }}

[[grid]]
"""
    with pytest.raises(PackError, match=r"grid .*, cell 0: .*nan"):
        compile_pack(parse_pack_text(text))


def test_unknown_config_key_rejected():
    pack = parse_pack(make_pack(defaults={
        "n": 7, "duration": 5.0, "mode": "kauri", "scenario": "national",
        "config": {"base_timeot": 5.0},
    }))
    with pytest.raises(PackError, match="did you mean 'base_timeout'"):
        compile_pack(pack)


def test_fault_times_scale_with_compile_scale():
    pack = parse_pack(make_pack(defaults={
        "n": 7, "duration": 40.0, "mode": "kauri", "scenario": "national",
        "faults": [[1, 20.0]],
    }))
    grid = compile_pack(pack, scale=0.5)
    assert grid.specs[0].crashes == ((1, 10.0),)
    assert grid.specs[0].duration == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# grid expansion
# ---------------------------------------------------------------------------
def test_expansion_order_first_axis_outermost():
    pack = parse_pack(make_pack(
        defaults={"duration": 5.0, "scenario": "national"},
        axes={"n": [7, 10], "mode": ["kauri", "pbft"]},
    ))
    grid = compile_pack(pack)
    assert [(s.n, s.mode) for s in grid.specs] == [
        (7, "kauri"), (7, "pbft"), (10, "kauri"), (10, "pbft"),
    ]


def test_axis_override_substitutes_values():
    pack = parse_pack(make_pack(
        defaults={"duration": 5.0, "n": 7, "scenario": "national"},
        axes={"mode": ["kauri", "pbft"]},
    ))
    grid = compile_pack(pack, axes={"mode": ["hotstuff-bls"]})
    assert [s.mode for s in grid.specs] == ["hotstuff-bls"]


def test_unknown_axis_override_rejected():
    pack = parse_pack(make_pack(defaults={"duration": 5.0, "n": 7, "scenario": "national"},
                                axes={"mode": ["kauri"]}))
    with pytest.raises(PackError, match="matches no declared axis"):
        compile_pack(pack, axes={"modes": ["kauri"]})


def test_overrides_overlay_cell_fields():
    pack = parse_pack(make_pack(defaults={"duration": 5.0, "n": 7, "scenario": "national"},
                                axes={"mode": ["kauri"]}))
    grid = compile_pack(pack, overrides={"n": 10})
    assert grid.specs[0].n == 10


def test_composite_axis_binds_label_and_fields():
    pack = parse_pack(make_pack(
        defaults={"duration": 5.0, "n": 7, "scenario": "national",
                  "mode": "kauri"},
        axes={"system": [
            {"label": "kauri-h2", "mode": "kauri", "height": 2},
            {"label": "kauri-h3", "mode": "kauri", "height": 3},
        ]},
    ))
    grid = compile_pack(pack)
    assert grid.labels() == ["kauri-h2", "kauri-h3"]
    assert [(c.label, c.spec.height) for c in grid.cells] == [
        ("kauri-h2", 2), ("kauri-h3", 3),
    ]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------
def test_catalog_lists_shipped_packs():
    names = pack_names()
    for expected in ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                     "depth", "wan-geo", "flash-crowd", "cascading-faults",
                     "churn", "scenario-comparison", "smoke"):
        assert expected in names, expected


def test_unknown_pack_name_error_names_the_catalog():
    with pytest.raises(PackError, match="unknown scenario pack 'no-such-pack'"):
        load_pack("no-such-pack")


def test_every_shipped_pack_validates():
    for name, path in catalog().items():
        grid = validate_pack(load_pack_file(path))
        assert grid.cells, name
