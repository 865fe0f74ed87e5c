"""Scenario-pack loader and compiler: validation errors and expansion rules."""

import json

import pytest

from repro.config import NATIONAL, ProtocolConfig, max_faults
from repro.core.modes import mode_spec
from repro.errors import ConfigError
from repro.runtime.cluster import build_policy
from repro.runtime.experiment import ExperimentResult
from repro.runtime.horizon import model_for
from repro.scenarios import (
    PackError,
    catalog,
    check_rows,
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


def test_block_kb_smaller_than_tx_size_names_the_cell():
    """Regression: a cell's ``block_kb`` was never checked against its
    ``[config] tx_size``, so a block no transaction fits compiled."""
    pack = parse_pack(make_pack(
        defaults={
            "n": 7, "duration": 5.0, "mode": "kauri", "scenario": "national",
            "config": {"tx_size": 4096},
        },
        axes={"block_kb": [8, 2]},
    ))
    with pytest.raises(PackError, match=r"cell 1: tx_size 4096 B exceeds block_size 2048 B"):
        compile_pack(pack)


def test_fault_times_scale_with_compile_scale():
    pack = parse_pack(make_pack(defaults={
        "n": 7, "duration": 40.0, "mode": "kauri", "scenario": "national",
        "faults": [[1, 20.0]],
    }))
    grid = compile_pack(pack, scale=0.5)
    assert grid.specs[0].crashes == ((1, 10.0),)
    assert grid.specs[0].duration == pytest.approx(20.0)


def leader_fault_pack(mode="kauri", **fault):
    return parse_pack(make_pack(defaults={
        "n": 13, "duration": 40.0, "mode": mode, "scenario": "national",
        "faults": [fault],
    }))


@pytest.mark.parametrize("mode", ["kauri", "hotstuff-bls"])
def test_leader_faults_resolve_to_the_policys_leader_order(mode):
    policy = build_policy(mode_spec(mode), "national", 13, 2, None)
    leaders = [policy.leader_of(view) for view in range(3)]
    assert len(set(leaders)) == 3
    grid = compile_pack(leader_fault_pack(mode, leaders=3, at=20.0), scale=0.5)
    assert grid.specs[0].crashes == tuple((node, 10.0) for node in leaders)


def test_more_leader_faults_than_f_is_an_impossible_quorum():
    # N=13 tolerates f=4.
    with pytest.raises(PackError, match="impossible quorum: 5 crash faults"):
        compile_pack(leader_fault_pack(leaders=5, at=20.0))


@pytest.mark.parametrize("count", [0, -1, 1.5, "3", True])
def test_leader_fault_count_must_be_a_positive_integer(count):
    with pytest.raises(PackError, match="'leaders' must be a positive integer"):
        compile_pack(leader_fault_pack(leaders=count, at=20.0))


def test_leader_faults_without_a_topology_name_the_cell():
    pack = parse_pack(make_pack(defaults={
        "n": 1, "duration": 40.0, "mode": "kauri", "scenario": "national",
        "faults": [{"leaders": 1, "at": 20.0}],
    }))
    with pytest.raises(PackError, match="cell 0: need at least two processes"):
        compile_pack(pack)


def test_misspelt_fault_key_suggests_close_match():
    with pytest.raises(PackError, match="unknown key 'leader'; did you mean 'leaders'"):
        compile_pack(leader_fault_pack(leader=1, at=20.0))


def test_leader_placed_cell_is_the_explicit_list_cell():
    (role,) = compile_pack(leader_fault_pack(leaders=4, at=20.0)).specs
    explicit = parse_pack(make_pack(defaults={
        "n": 13, "duration": 40.0, "mode": "kauri", "scenario": "national",
        "faults": [[node, 20.0] for node, _ in role.crashes],
    }))
    (spec,) = compile_pack(explicit).specs
    assert role == spec
    assert role.key() == spec.key()


def test_fig12_between_bounds_are_the_policys():
    """12c's bounds are m (a star from there on) and §5.3's m + f + 1;
    12a's and 12b's single counts stay below m, on trees."""
    policy = build_policy(mode_spec("kauri"), "national", 100, 2, None)
    f = max_faults(100)
    bounds = [(row.args["lo"], row.args["hi"])
              for row in load_pack("fig12").expect if row.kind == "between"]
    assert bounds == [(1, 1), (3, 3),
                      (policy.num_bins, policy.worst_case_reconfigurations(f))]
    assert 3 < policy.num_bins


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
    assert [c.bindings["height"] for c in grid.cells] == [2, 3]
    assert [(c.label, c.spec.height) for c in grid.cells] == [
        ("kauri-h2", 2), ("kauri-h3", 3),
    ]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------
def test_catalog_lists_shipped_packs():
    names = pack_names()
    for expected in ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                     "fig12", "depth", "wan-geo", "flash-crowd", "cascading-faults",
                     "churn", "scenario-comparison", "smoke", "ablations"):
        assert expected in names, expected


def test_unknown_pack_name_error_names_the_catalog():
    with pytest.raises(PackError, match="unknown scenario pack 'no-such-pack'"):
        load_pack("no-such-pack")


def test_every_shipped_pack_validates():
    for name, path in catalog().items():
        grid = validate_pack(load_pack_file(path))
        assert grid.cells, name


def test_every_figure_pack_states_its_claims():
    for name in ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                 "depth", "ablations"):
        assert load_pack(name).expect, name


# ---------------------------------------------------------------------------
# [[expect]] rows
# ---------------------------------------------------------------------------
def expect_pack(*rows):
    """Four cells, in order: (7, kauri), (7, secp), (10, kauri), (10, secp)."""
    data = make_pack(
        defaults={"duration": 5.0, "scenario": "national"},
        axes={"n": [7, 10], "mode": ["kauri", "hotstuff-secp"]},
    )
    data["expect"] = list(rows)
    return parse_pack(data)


def result(tput, p50=1.0):
    return ExperimentResult(
        mode="kauri", scenario="national", n=7, block_size=1, stretch=None,
        duration=1.0, warmup=0.0, throughput_txs=tput, throughput_blocks=0.0,
        latency={"p50": p50}, committed_blocks=1, view_changes=0, max_view=0,
        cpu_saturated=False, leader_cpu_utilization=0.0, instance_failures=0,
    )


def verdicts(pack, *results):
    return check_rows(compile_pack(pack), list(results))


def test_expect_unknown_kind_names_pack_and_row():
    with pytest.raises(
        PackError, match=r"pack 't', expect\[1\]: unknown kind 'winer'; did you mean 'winner'"
    ):
        expect_pack({"kind": "winner", "over": "mode", "is": "kauri"},
                    {"kind": "winer", "over": "mode", "is": "kauri"})


def test_expect_unknown_axis_value_names_pack_and_row():
    pack = expect_pack({"kind": "winner", "over": "mode", "is": "kauri", "where": {"n": 8}})
    with pytest.raises(
        PackError, match=r"pack 't', expect\[0\] \(winner\): 8 is not a value of axis 'n'"
    ):
        validate_pack(pack)


def test_expect_selector_picking_several_cells_rejected():
    pack = expect_pack({"kind": "ratio_at_least", "of": {"mode": "kauri"},
                        "to": {"mode": "hotstuff-secp"}, "at_least": 1})
    with pytest.raises(PackError, match=r"expect\[0\] \(ratio_at_least\): .* picks 2 cells, not one"):
        validate_pack(pack)


def test_expect_selector_picking_no_cell_rejected():
    data = make_pack(defaults={"duration": 5.0, "scenario": "national"})
    data["grid"] = [{"axes": {"n": [7], "mode": ["kauri"]}},
                    {"axes": {"n": [10], "mode": ["hotstuff-secp"]}}]
    data["expect"] = [{"kind": "ratio_at_least", "of": {"n": 7, "mode": "kauri"},
                       "to": {"n": 7, "mode": "hotstuff-secp"}, "at_least": 1}]
    with pytest.raises(PackError, match=r"pack 't', expect\[0\] .* picks 0 cells, not one"):
        validate_pack(parse_pack(data))


def test_expect_rows_read_the_unrounded_results():
    pack = expect_pack(
        {"kind": "winner", "over": "mode", "is": "kauri", "where": {"n": 7}},
        {"kind": "ratio_at_least", "of": {"mode": "kauri"}, "to": {"mode": "hotstuff-secp"},
         "at_least": 3, "where": {"n": 10}},
        {"kind": "monotone_in", "over": "n", "direction": "increasing",
         "of": {"mode": "kauri"}, "to": {"mode": "hotstuff-secp"}},
        {"kind": "crossover_between", "metric": "latency.p50", "over": "n",
         "lo": 7, "hi": 10, "of": {"mode": "kauri"}, "to": {"mode": "hotstuff-secp"},
         "at_least": 4},
        {"kind": "winner", "over": "mode", "is": "hotstuff-secp", "where": {"n": 10},
         "known_deviation": "the star wins at this size"},
    )
    checked = verdicts(pack, result(200.0, p50=1.0), result(100.0, p50=2.0),
                       result(500.0, p50=3.0), result(200.0, p50=1.5))
    assert [v.status for v in checked] == ["pass", "FAIL", "pass", "pass", "known_deviation"]
    assert checked[1].measured == "2.5" and checked[1].bound == ">= 3"
    assert checked[2].measured == "7: 2, 10: 2.5"
    assert checked[3].measured == "0.5 at 7, 2 at 10 (x4)"
    assert checked[4].line().endswith("-- the star wins at this size")


def test_expect_ratio_over_an_empty_cell_fails_naming_it():
    pack = expect_pack({"kind": "ratio_at_least", "of": {"mode": "kauri"},
                        "to": {"mode": "hotstuff-secp"}, "at_least": 1, "where": {"n": 7}})
    (verdict,) = verdicts(pack, result(200.0), result(0.0), result(1.0), result(1.0))
    assert verdict.status == "FAIL"
    assert "empty cell n=7 mode=hotstuff-secp reads 0" in verdict.line()


def test_expect_winner_skips_empty_cells_but_not_the_expected_one():
    pack = expect_pack({"kind": "winner", "over": "mode", "is": "kauri", "where": {"n": 7}})
    (verdict,) = verdicts(pack, result(1.0), result(0.0), result(1.0), result(1.0))
    assert verdict.status == "pass"
    (verdict,) = verdicts(pack, result(0.0), result(5.0), result(1.0), result(1.0))
    assert verdict.status == "FAIL" and "empty cell n=7 mode=kauri" in verdict.measured


def test_expect_between_bounds_one_cell_and_a_zero_count_is_measured():
    pack = expect_pack(
        {"kind": "between", "metric": "max_view", "of": {"n": 7, "mode": "kauri"},
         "lo": 0, "hi": 0},
        {"kind": "between", "metric": "max_view", "of": {"n": 10, "mode": "kauri"},
         "lo": 1, "hi": 3},
    )
    quiet, faulted = result(1.0), result(1.0)
    faulted.max_view = 4
    checked = verdicts(pack, quiet, result(1.0), faulted, result(1.0))
    assert [v.status for v in checked] == ["pass", "FAIL"]
    assert checked[0].measured == "0" and checked[1].bound == "in [1, 3]"


@pytest.mark.parametrize("bounds, message", [
    ({"lo": 3, "hi": 1}, "'lo' 3 exceeds 'hi' 1"),
    ({"lo": "1", "hi": 3}, "'lo' and 'hi' must be numbers"),
])
def test_expect_between_bounds_checked(bounds, message):
    with pytest.raises(PackError, match=message):
        expect_pack({"kind": "between", "metric": "max_view",
                     "of": {"n": 7, "mode": "kauri"}, **bounds})


# ---------------------------------------------------------------------------
# metric = "model_ratio"
# ---------------------------------------------------------------------------
def test_model_ratio_is_throughput_over_the_models_prediction():
    data = make_pack(defaults={"duration": 5.0, "scenario": "national", "n": 7},
                     axes={"mode": ["kauri", "kauri-np"]})
    data["expect"] = [
        {"kind": "between", "metric": "model_ratio", "of": {"mode": mode},
         "lo": 0.5, "hi": 1.0}
        for mode in ("kauri", "kauri-np")
    ]
    grid = compile_pack(parse_pack(data))
    config = ProtocolConfig()
    model = model_for("kauri", 7, NATIONAL, config.block_size)
    pipelined = model.expected_throughput_txs(config, pipelined=True)
    sequential = model.expected_throughput_txs(config, pipelined=False)
    assert sequential < pipelined  # kauri-np is not pipelined
    assert grid.expect[0].predicted == {0: pipelined}
    assert grid.expect[1].predicted == {1: sequential}
    checked = check_rows(grid, [result(0.9 * pipelined), result(1.2 * sequential)])
    assert [v.status for v in checked] == ["pass", "FAIL"]
    assert [v.measured for v in checked] == ["0.9", "1.2"]
    assert checked[0].claim == "between model_ratio mode=kauri"
    empty = check_rows(grid, [result(0.0), result(1.0)])[0]
    assert empty.status == "FAIL" and "empty cell mode=kauri reads 0" in empty.line()


def test_model_ratio_of_a_cluster_cell_is_rejected_at_compile_time():
    data = make_pack(defaults={"duration": 5.0,
                               "scenario": {"clusters": "resilientdb", "per_cluster": 4}},
                     axes={"mode": ["kauri", "hotstuff-secp"]})
    data["expect"] = [{"kind": "between", "metric": "model_ratio",
                       "of": {"mode": "hotstuff-secp"}, "lo": 0.3, "hi": 1.3}]
    with pytest.raises(
        PackError,
        match=r"pack 't', expect\[0\] \(between\): metric 'model_ratio' needs the "
              r"§4.3 model, and cell 1 \(mode=hotstuff-secp\) has a cluster scenario",
    ):
        validate_pack(parse_pack(data))


def test_model_ratio_of_a_cell_the_model_cannot_shape_names_it():
    data = make_pack(defaults={"duration": 5.0, "scenario": "global", "mode": "kauri"},
                     axes={"n": [2, 7]})
    data["expect"] = [{"kind": "between", "metric": "model_ratio", "of": {"n": 2},
                       "lo": 0.3, "hi": 1.3}]
    with pytest.raises(PackError, match=r"expect\[0\] \(between\): cell 0: n=2 cannot fill"):
        validate_pack(parse_pack(data))


def test_unknown_metric_lists_model_ratio():
    with pytest.raises(
        PackError,
        match=r"unknown metric 'model_ration'; did you mean 'model_ratio'\? "
              r"\(metrics: throughput_txs, latency.p50, max_view, model_ratio\)",
    ):
        expect_pack({"kind": "between", "metric": "model_ration",
                     "of": {"n": 7, "mode": "kauri"}, "lo": 0.3, "hi": 1.3})
