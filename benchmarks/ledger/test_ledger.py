"""Tests of the ledger itself, at smoke sizes.

Outside tier-1's ``testpaths`` on purpose (they measure wall clock in
subprocesses). Run as::

    python -m pytest benchmarks/ledger -q
"""

import copy
import json
import os
import subprocess
import sys

import pytest

import run as ledger  # puts nothing on sys.path yet; SRC is added below

sys.path.insert(0, ledger.SRC)

import compare  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(ledger.HERE, "run.py")
MANIFEST = ledger.load_manifest()
WORKLOAD_NAMES = [entry["name"] for entry in MANIFEST["workloads"]]


def run_cli(*argv):
    done = subprocess.run(
        [sys.executable, RUN, *argv], capture_output=True, text=True, timeout=170
    )
    assert done.returncode == 0, done.stderr + done.stdout
    return done.stdout


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    """All five workloads, seed 1, through the multi-workload parent."""
    out = tmp_path_factory.mktemp("ledger") / "e2e.json"
    stdout = run_cli("--smoke", "--seed", "1", "--out", str(out))
    with open(out) as fh:
        return json.load(fh), stdout


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "trace.json"
    run_cli("--smoke", "--trace", "1", "--out", str(out), "--workload", "ingest_overload")
    with open(out) as fh:
        return json.load(fh)


def assert_emits(doc, listed):
    assert sorted(doc["metrics"]) == sorted(entry["name"] for entry in listed)
    for entry in listed:
        emitted = doc["metrics"][entry["name"]]
        assert emitted["unit"] == entry["unit"] and emitted["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_manifest_names_the_workloads_the_code_defines():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS) == list(workloads.SMOKE)
    assert MANIFEST["paths"] == ["benchmarks/ledger"]


def test_every_end_to_end_metric_is_emitted_by_every_workload(end_to_end):
    results, stdout = end_to_end
    assert sorted(results["workloads"]) == sorted(WORKLOAD_NAMES)
    for doc in results["workloads"].values():
        assert_emits(doc, MANIFEST["end_to_end"])
        # Seed 1 passes every correctness check and no operation fails.
        assert doc["correct"] and doc["deterministic"]["ops_failed"] == 0
        assert doc["deterministic"]["ops_attempted"] >= 1
        for value in doc["metrics"].values():
            assert value["value"] > 0
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]
    assert len(lines) == len(WORKLOAD_NAMES)
    for line in lines:
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert results["machine"]["nproc"] >= 1 and results["machine"]["python"]
    assert results["workloads"]["kauri_crash_n100"]["deterministic"]["recovery_s"] > 20


def test_every_per_layer_metric_is_emitted(traced):
    for doc in traced["workloads"].values():
        assert_emits(doc, MANIFEST["per_layer"])
        trace = doc["wall"]["trace"]
        layer_sum = sum(row["self_s"] for row in trace["layers"].values())
        assert layer_sum == pytest.approx(trace["profiled_total_s"], rel=0.01)
        # Files of repro/ that no layer claims must not be where time goes.
        assert trace["repro_other_s"] < 0.01 * trace["repro_self_s"]
    counts = traced["workloads"]["ingest_overload"]["deterministic"]["counts"]
    assert counts["runtime.clients.offered"] == (
        counts["runtime.clients.admitted"]
        + counts["runtime.clients.dropped"]
        + counts["runtime.clients.deferred"]
    )
    assert counts["runtime.clients.dropped"] > 0 and counts["runtime.metrics.hist_adds"] > 0


def test_no_repro_file_is_unmapped():
    package = os.path.join(ledger.SRC, "repro")
    files = [
        os.path.relpath(os.path.join(root, name), package).replace(os.sep, "/")
        for root, _dirs, names in os.walk(package)
        for name in names
        if name.endswith(".py")
    ]
    assert len(files) > 50
    assert layertrace.unmapped_files(files) == []
    assert layertrace.unmapped_files(["newpkg/thing.py"]) == ["newpkg/thing.py"]


def fingerprint(name, seed):
    deployment = workloads.Deployment(workloads.SMOKE[name], seed)
    deployment.start()
    deployment.run()
    deployment.check()
    return deployment.fingerprint(), deployment.sim_digest()


@pytest.mark.parametrize("name", ["kauri_n100", "ingest_overload"])
def test_same_seed_same_run_other_seed_other_run(name):
    assert fingerprint(name, 0) == fingerprint(name, 0)
    assert fingerprint(name, 0) != fingerprint(name, 1)


def test_a_failed_check_names_itself_and_fails_the_command():
    short = workloads.Workload("kauri_n100", 100, "kauri", "global", 5.0, 0.2, max_commits=6)
    deployment = workloads.Deployment(short, 0)
    deployment.start()
    deployment.run()
    with pytest.raises(workloads.CheckFailed, match="^liveness:"):
        deployment.check()


def test_compare_passes_a_file_against_itself_and_flags_a_slowdown(end_to_end, tmp_path):
    results, _ = end_to_end
    rows, notes = compare.compare(results, results, MANIFEST)
    assert len(rows) == len(WORKLOAD_NAMES) * len(MANIFEST["end_to_end"])
    assert {row[-1] for row in rows} <= {"same", "unresolved"}
    assert all("identical" in note for note in notes)

    bound = next(e["bound"] for e in MANIFEST["end_to_end"] if e["name"] == "host_ms_per_block")
    slowdown = 1.0 + 2.0 * bound
    slow = copy.deepcopy(results)
    for doc in slow["workloads"].values():
        doc["wall"]["pass_wall_s"]["quiet_halves"] = [1.0, 1.0]
        doc["metrics"]["host_ms_per_block"]["value"] *= slowdown
    steady = copy.deepcopy(slow)
    for doc in steady["workloads"].values():
        doc["metrics"]["host_ms_per_block"]["value"] /= slowdown
    rows, _ = compare.compare(steady, slow, MANIFEST)
    flagged = [row for row in rows if row[-1] == "worse"]
    assert [row[1] for row in flagged] == ["host_ms_per_block"] * len(WORKLOAD_NAMES)

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(steady))
    b.write_text(json.dumps(slow))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1


def test_a_checkout_without_the_simulator_is_refused(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and the
    benchmark's own files exist: it must fail without printing a result."""
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    for name in os.listdir(ledger.HERE):
        if name.endswith(".py"):
            target = bare / "benchmarks" / "ledger"
            target.mkdir(exist_ok=True)
            (target / name).write_text(open(os.path.join(ledger.HERE, name)).read())
    (bare / "BENCHMARK.json").write_text(open(ledger.MANIFEST_PATH).read())
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "kauri_n100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
