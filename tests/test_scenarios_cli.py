"""`repro scenarios` subcommand group: list / show / validate / run."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(args):
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args)
    return code, buffer.getvalue()


TWO_AXIS_PACK = """
[pack]
name = "two-axis"
title = "Two swept axes"
schema = 1

[defaults]
scenario = "national"
n = 4
duration = 2.0
blocks = 10

[[grid]]
[grid.axes]
stretch = [1.0, 2.0]
mode = ["kauri", "kauri-np"]
"""


def test_scenarios_run_table_prints_every_axis_value(tmp_path, monkeypatch):
    (tmp_path / "two-axis.toml").write_text(TWO_AXIS_PACK)
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path))
    code, out = run_cli(["scenarios", "run", "two-axis", "--no-cache"])
    assert code == 0
    title, header, rule, *rows, stats = out.splitlines()
    assert header.split()[:2] == ["stretch", "mode"]
    assert [row.split()[:2] for row in rows] == [
        ["1.0", "kauri"], ["1.0", "kauri-np"],
        ["2.0", "kauri"], ["2.0", "kauri-np"],
    ]
    assert "simulated" in stats


CHECKED_PACK = """
[pack]
name = "{name}"
title = "Two cells, one checked claim"
schema = 1

[defaults]
scenario = "national"
n = 7
duration = 4.0
blocks = 10

[[grid]]
[grid.axes]
mode = ["kauri", "hotstuff-secp"]

[[expect]]
kind = "ratio_at_least"
of = {{ mode = "hotstuff-secp" }}
to = {{ mode = "kauri" }}
at_least = {bound}
"""


def test_scenarios_run_exits_on_its_expect_rows(tmp_path, monkeypatch, capsys):
    """A row that holds exits 0; a row that cannot hold exits 1 and its
    line names the row and the measured value; under --json the verdicts
    go to stderr and stdout stays one JSON document."""
    (tmp_path / "holds.toml").write_text(CHECKED_PACK.format(name="holds", bound=0.001))
    (tmp_path / "fails.toml").write_text(CHECKED_PACK.format(name="fails", bound=1000))
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path))

    assert main(["scenarios", "run", "holds", "--no-cache"]) == 0
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict.startswith("holds expect[0] pass: ratio_at_least throughput_txs")

    assert main(["scenarios", "run", "fails", "--no-cache", "--json"]) == 1
    captured = capsys.readouterr()
    results = json.loads(captured.out)
    ratio = results[1]["throughput_txs"] / results[0]["throughput_txs"]
    assert captured.err.splitlines()[-1] == (
        "fails expect[0] FAIL: ratio_at_least throughput_txs mode=hotstuff-secp / "
        f"mode=kauri: measured {ratio:.4g}; bound >= 1000"
    )


def test_scenarios_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["scenarios"])


def test_scenarios_list_shows_every_pack():
    code, out = run_cli(["scenarios", "list"])
    assert code == 0
    for name in ("fig5", "fig6", "smoke", "wan-geo", "flash-crowd",
                 "cascading-faults", "churn"):
        assert name in out, name


def test_scenarios_show_smoke():
    code, out = run_cli(["scenarios", "show", "smoke"])
    assert code == 0
    assert "smoke" in out
    assert "hotstuff-secp" in out
    assert "cells at scale 1.0" in out


def test_scenarios_validate_all():
    code, out = run_cli(["scenarios", "validate"])
    assert code == 0
    assert "all" in out and "packs validate" in out


def test_scenarios_validate_one():
    code, out = run_cli(["scenarios", "validate", "fig6"])
    assert code == 0
    assert "ok   fig6 (36 cells)" in out


def test_scenarios_run_smoke_table():
    code, out = run_cli(["scenarios", "run", "smoke", "--scale", "0.5"])
    assert code == 0
    assert "kauri" in out and "hotstuff-secp" in out
    assert "simulated" in out  # engine stats line


def test_scenarios_run_smoke_json():
    code, out = run_cli(
        ["scenarios", "run", "smoke", "--scale", "0.5", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert {entry["mode"] for entry in payload} == {"kauri", "hotstuff-secp"}


def test_scenarios_run_report_validates(tmp_path):
    out_path = tmp_path / "run_report.json"
    code, out = run_cli(
        ["scenarios", "run", "smoke", "--scale", "0.5",
         "--report", str(out_path)]
    )
    assert code == 0
    assert out_path.exists()
    report = json.loads(out_path.read_text())
    assert report  # non-empty RunReport JSON


def test_scenarios_run_json_with_report_prints_one_json_document(tmp_path):
    out_path = tmp_path / "run_report.json"
    code, out = run_cli(
        ["scenarios", "run", "smoke", "--scale", "0.5", "--json",
         "--report", str(out_path)]
    )
    assert code == 0
    assert {entry["mode"] for entry in json.loads(out)} == {"kauri", "hotstuff-secp"}
    assert json.loads(out_path.read_text())
