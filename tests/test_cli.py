"""CLI tests: every command runs and produces the expected surface."""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.cli import FIG_CHOICES, build_parser, main


def run_cli(args):
    """Run the CLI in-process, capturing stdout."""
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args)
    return code, buffer.getvalue()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_basic():
    code, out = run_cli(
        ["run", "--mode", "kauri", "--scenario", "national", "--n", "7",
         "--duration", "5"]
    )
    assert code == 0
    assert "throughput" in out
    assert "blocks" in out


def test_run_json_output():
    code, out = run_cli(
        ["run", "--mode", "kauri", "--scenario", "national", "--n", "7",
         "--duration", "5", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "kauri"
    assert payload["committed_blocks"] > 0


def test_run_with_crash(monkeypatch):
    from repro.runtime.cluster import Cluster

    built = []
    init = Cluster.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cluster, "__init__", counting_init)
    code, out = run_cli(
        ["run", "--mode", "kauri", "--scenario", "national", "--n", "7",
         "--duration", "20", "--crash-leader-at", "5", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_view"] >= 1
    # The view-0 leader comes from the topology policy, not a probe cluster.
    assert len(built) == 1


def test_run_with_lanes_and_stretch():
    code, out = run_cli(
        ["run", "--mode", "kauri", "--scenario", "national", "--n", "7",
         "--duration", "5", "--lanes", "4", "--stretch", "2.0", "--json"]
    )
    assert code == 0
    assert json.loads(out)["stretch"] == 2.0


def test_model_command():
    code, out = run_cli(["model", "--n", "400", "--scenario", "global"])
    assert code == 0
    assert "kauri h=2" in out
    assert "Max speedup" in out


def test_tune_command():
    code, out = run_cli(["tune", "--n", "100", "--scenario", "global"])
    assert code == 0
    assert "recommended" in out


def test_tune_heterogeneous():
    code, out = run_cli(["tune", "--scenario", "heterogeneous"])
    assert code == 0
    assert "leader cluster : 0" in out


def test_table_commands():
    code, out = run_cli(["table", "1"])
    assert code == 0
    assert "Kauri" in out
    code, out = run_cli(["table", "2"])
    assert code == 0
    assert "Stretch" in out


def test_table_2_is_the_model_table_byte_for_byte():
    # The SHA-256 of `repro table 2`'s stdout: the §4.3 model's terms,
    # with no simulation. A change to the model's terms moves it on purpose.
    _, out = run_cli(["table", "2"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a9e85ed23e535c6906356e55fbf018b0f90f3a27f90a46981fd4945571f4129d"
    )


@pytest.mark.parametrize("option", [
    ["--measured"], ["--scale", "0.3"], ["--jobs", "2"], ["--no-cache"],
])
def test_table_has_no_simulation_options(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "2", *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


TWO_MODE_PACK = """
[pack]
name = "two-mode"
title = "Kauri vs PBFT"
schema = 1

[defaults]
scenario = "national"
n = 7
duration = 5.0
blocks = 20

[[grid]]
[grid.axes]
mode = ["kauri", "pbft"]
"""


@pytest.fixture
def two_mode_pack(tmp_path, monkeypatch):
    (tmp_path / "two-mode.toml").write_text(TWO_MODE_PACK)
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path / "cache"))
    return "two-mode"


def test_scenarios_run_mode_axis_table(two_mode_pack):
    code, out = run_cli(["scenarios", "run", two_mode_pack, "--jobs", "1"])
    assert code == 0
    assert "Kauri vs PBFT" in out
    assert "kauri" in out and "pbft" in out
    assert out.splitlines()[-1] == "[serial x1: 2 simulated, 0 cached]"
    code, out = run_cli(["scenarios", "run", two_mode_pack, "--jobs", "1"])
    assert out.splitlines()[-1] == "[serial x1: 0 simulated, 2 cached]"


def test_scenarios_run_mode_axis_json(two_mode_pack):
    code, out = run_cli(["scenarios", "run", two_mode_pack, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert [entry["mode"] for entry in payload] == ["kauri", "pbft"]
    assert all(entry["committed_blocks"] > 0 for entry in payload)


def test_removed_verbs_are_invalid_choices(capsys):
    for verb in ("report", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--n", "7"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_run_report_on_crash_run(tmp_path):
    from repro.obs.report import validate_report

    path = tmp_path / "crash.json"
    code, _ = run_cli(
        ["run", "--mode", "kauri", "--scenario", "national", "--n", "7",
         "--crash-leader-at", "2", "--duration", "12", "--report", str(path)]
    )
    assert code == 0
    report = json.loads(path.read_text())
    assert validate_report(report) == []
    assert report["faults"]["crashed"] == [report["saturation"]["leader"]]
    assert report["totals"]["view_changes"] >= 1


def test_run_json_with_report_prints_one_json_document(tmp_path, capsys):
    path = tmp_path / "run.json"
    code = main(
        ["run", "--mode", "kauri", "--scenario", "national", "--n", "7",
         "--duration", "5", "--json", "--report", str(path)]
    )
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["mode"] == "kauri"
    assert payload["report"] == json.loads(path.read_text())
    assert f"wrote {path}" in captured.err
    assert "report validates against the schema" in captured.err


def test_run_pbft_mode():
    code, out = run_cli(
        ["run", "--mode", "pbft", "--scenario", "national", "--n", "7",
         "--duration", "5", "--json"]
    )
    assert code == 0
    assert json.loads(out)["committed_blocks"] > 0


def test_fig_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig", "99"])


@pytest.mark.slow
def test_fig3_gantt():
    code, out = run_cli(["fig", "3", "--scale", "0.2"])
    assert code == 0
    assert "peak in-flight" in out
    assert "#" in out


def test_fig_runs_only_the_cluster_built_figures():
    # Every pack-backed figure runs as `repro scenarios run <pack>`.
    assert FIG_CHOICES == ["3"]
    with pytest.raises(SystemExit) as exc:
        main(["fig", "7"])
    assert exc.value.code == 2


def test_fig_12a_is_a_pack_now(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fig", "12a"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "12a" in err


CAPACITY = ["capacity", "--n", "4", "--users", "100", "--points", "2",
            "--scenario", "national", "--duration", "2", "--no-cache"]


def test_capacity_table():
    code, out = run_cli(CAPACITY)
    assert code == 0
    assert "Capacity sweep: kauri n=4 (national)" in out
    assert "100" in out and "200" in out
    assert "saturation knee" in out
    assert "simulated" in out  # engine stats line


def test_capacity_json():
    code, out = run_cli([*CAPACITY, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert [point["users"] for point in payload["points"]] == [100, 200]
    assert -1 <= payload["knee"] < 2


def test_capacity_json_with_report_prints_one_json_document(tmp_path):
    path = tmp_path / "knee.json"
    code, out = run_cli([*CAPACITY, "--json", "--report", str(path)])
    assert code == 0
    assert set(json.loads(out)) == {"points", "knee"}
    assert json.loads(path.read_text())


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "Kauri" in proc.stdout


def test_cache_stats_json(tmp_path):
    (tmp_path / "entry.json").write_text('{"schema": 1}')
    (tmp_path / "leftover.tmp").write_text("x")
    code, out = run_cli(["cache", "stats", "--dir", str(tmp_path), "--json"])
    assert code == 0
    stats = json.loads(out)
    assert stats["entries"] == 1
    assert stats["tmp_files"] == 1
    assert stats["root"] == str(tmp_path)


def test_cache_stats_table(tmp_path):
    code, out = run_cli(["cache", "stats", "--dir", str(tmp_path)])
    assert code == 0
    assert "entries" in out and "tmp files" in out


def test_cache_prune_dry_run_then_real(tmp_path):
    (tmp_path / "leftover.tmp").write_text("x" * 10)
    code, out = run_cli(
        ["cache", "prune", "--dir", str(tmp_path), "--dry-run"]
    )
    assert code == 0
    assert "would remove 1 files" in out
    assert (tmp_path / "leftover.tmp").exists()
    code, out = run_cli(["cache", "prune", "--dir", str(tmp_path)])
    assert code == 0
    assert "removed 1 files" in out
    assert not (tmp_path / "leftover.tmp").exists()


def test_cache_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["cache"])

