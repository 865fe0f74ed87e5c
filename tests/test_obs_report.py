"""Tests for the observability layer: phase recorder, RunReport, schema.

Covers the acceptance criteria of the observability PR: deterministic
(byte-identical) reports for repeated runs of the same spec, per-node CPU
utilization with a correctly-flagged saturated configuration, per-round
phase spans at the leader, and structural validation against the
checked-in schema.
"""

import json

import pytest

from repro.obs import (
    PhaseRecorder,
    REPORT_SCHEMA_VERSION,
    SCHEMA_PATH,
    build_report,
    load_schema,
    report_json,
    validate_report,
)
from repro.runtime.cluster import Cluster
from repro.runtime.experiment import run_experiment
from repro.runtime.sweep import ExperimentSpec


# ---------------------------------------------------------------------------
# PhaseRecorder
# ---------------------------------------------------------------------------
class TestPhaseRecorder:
    def test_spans_accumulate_per_instance(self):
        rec = PhaseRecorder()
        rec.start(5, 1.0)
        rec.disseminate(5, 0.2)
        rec.aggregate(5, 0.3, contributions=4)
        rec.aggregate(5, 0.1, contributions=2)  # second vote phase
        rec.wait(5, 0.05)
        rec.finish(5, 2.0, decided=True)
        (only,) = rec.instances()
        assert only["height"] == 5
        assert only["start"] == 1.0
        assert only["end"] == 2.0
        assert only["decided"] is True
        assert only["disseminate"] == pytest.approx(0.2)
        assert only["aggregate"] == pytest.approx(0.4)
        assert only["contributions"] == 6
        assert only["wait"] == pytest.approx(0.05)

    def test_window_filter_is_half_open_on_start(self):
        rec = PhaseRecorder()
        for height, start in enumerate([0.0, 1.0, 2.0, 3.0]):
            rec.start(height, start)
            rec.finish(height, start + 0.5, decided=True)
        heights = [r["height"] for r in rec.instances(1.0, 3.0)]
        assert heights == [1, 2]  # start==1.0 in, start==3.0 out

    def test_summary_totals_and_means(self):
        rec = PhaseRecorder()
        for height in (1, 2):
            rec.start(height, float(height))
            rec.aggregate(height, 0.4)
            rec.finish(height, height + 1.0, decided=(height == 1))
        summary = rec.summary(0.0, 10.0)
        assert summary["instances"] == 2
        assert summary["decided"] == 1
        assert summary["aggregate_total"] == pytest.approx(0.8)
        assert summary["aggregate_mean"] == pytest.approx(0.4)
        assert summary["wait_total"] == 0.0

    def test_empty_summary(self):
        summary = PhaseRecorder().summary()
        assert summary["instances"] == 0
        assert summary["disseminate_mean"] == 0.0


# ---------------------------------------------------------------------------
# RunReport
# ---------------------------------------------------------------------------
def small_cluster(**overrides):
    kwargs = dict(n=13, mode="kauri", scenario="global", observability=True)
    kwargs.update(overrides)
    cluster = Cluster(**kwargs)
    cluster.start()
    cluster.run(duration=8.0, max_commits=10)
    return cluster


def test_report_structure_and_schema():
    cluster = small_cluster()
    report = build_report(cluster)
    assert validate_report(report) == []
    assert report["schema"] == REPORT_SCHEMA_VERSION
    assert report["run"]["n"] == 13
    assert len(report["nodes"]) == 13
    assert report["totals"]["committed_blocks"] > 0
    assert 1 <= len(report["hot_nics"]) <= 5
    # The root disseminates and aggregates; its rounds carry spans.
    assert report["rounds"], "leader rounds missing"
    decided = [r for r in report["rounds"] if r["decided"]]
    assert decided
    assert all(r["aggregate"] > 0.0 for r in decided)
    assert all(r["disseminate"] > 0.0 for r in decided)


def test_report_is_deterministic_across_identical_runs():
    texts = []
    for _ in range(2):
        cluster = small_cluster()
        texts.append(report_json(build_report(cluster, start=2.0)))
    assert texts[0] == texts[1]


def test_report_windowing_excludes_out_of_window_activity():
    cluster = small_cluster()
    end = cluster.sim.now
    whole = build_report(cluster)
    tail = build_report(cluster, start=end * 0.5)
    assert tail["window"]["duration"] < whole["window"]["duration"]
    for node_whole, node_tail in zip(whole["nodes"], tail["nodes"]):
        assert node_tail["cpu"]["busy_in_window"] <= node_whole["cpu"]["busy_in_window"]
        assert node_tail["nic"]["bytes_in_window"] <= node_whole["nic"]["bytes_in_window"]


def test_validate_report_flags_problems():
    cluster = small_cluster()
    report = build_report(cluster)
    del report["saturation"]
    report["nodes"][0]["cpu"]["utilization"] = "high"
    problems = validate_report(report)
    assert any("saturation" in p for p in problems)
    assert any("utilization" in p for p in problems)


def test_schema_file_is_valid_json():
    schema = load_schema()
    assert schema["type"] == "object"
    assert SCHEMA_PATH.exists()


# ---------------------------------------------------------------------------
# Experiment / sweep plumbing
# ---------------------------------------------------------------------------
def test_run_experiment_attaches_report():
    result = run_experiment(
        mode="kauri", scenario="global", n=13, duration=8.0, max_commits=10,
        observability=True,
    )
    assert result.report is not None
    assert validate_report(result.report) == []
    # The report's window is the same steady-state window as the result's.
    assert result.report["window"]["start"] == pytest.approx(result.warmup)
    saturation = result.report["saturation"]
    assert result.cpu_saturated == (
        saturation["leader_cpu_utilization"] >= saturation["threshold"]
    )


def test_observability_disabled_is_default_and_free():
    result = run_experiment(
        mode="kauri", scenario="global", n=13, duration=8.0, max_commits=10,
    )
    assert result.report is None
    cluster = Cluster(n=13, mode="kauri", scenario="global")
    assert cluster.recorders == {}
    assert all(node.obs is None for node in cluster.nodes)


def test_saturated_configuration_is_flagged():
    """CPU-bound deployment (BLS verification on a fast network): the leader
    must be flagged saturated -- the paper's red-circle convention."""
    result = run_experiment(
        mode="hotstuff-bls", scenario="national", n=40,
        duration=5.0, max_commits=10, observability=True,
    )
    assert result.cpu_saturated
    assert result.leader_cpu_utilization >= 0.95
    saturation = result.report["saturation"]
    assert saturation["cpu_saturated"] is True
    assert saturation["leader"] in saturation["saturated_nodes"]
    leader_row = result.report["nodes"][saturation["leader"]]
    assert leader_row["cpu"]["saturated"] is True
    # Utilization is exact: never above 1 even at full saturation.
    assert all(n["cpu"]["utilization"] <= 1.0 for n in result.report["nodes"])


def test_unsaturated_configuration_is_not_flagged():
    result = run_experiment(
        mode="kauri", scenario="global", n=13, duration=8.0, max_commits=10,
        observability=True,
    )
    assert not result.cpu_saturated
    assert result.report["saturation"]["cpu_saturated"] is False


def test_spec_observability_roundtrip(tmp_path):
    spec = ExperimentSpec(
        n=13, duration=8.0, max_commits=10, observability=True
    )
    assert spec.canonical()["observability"] is True
    assert spec.key() != ExperimentSpec(
        n=13, duration=8.0, max_commits=10
    ).key()
    result = spec.run()
    assert result.report is not None
    # Reports survive the on-disk result cache.
    from repro.runtime.sweep import ResultCache

    cache = ResultCache(tmp_path)
    cache.put(spec, result)
    cached = cache.get(spec)
    assert cached is not None
    assert cached.report == result.report


def test_cli_report_command(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "report.json"
    code = main([
        "run", "--n", "13", "--duration", "8", "--max-commits", "10",
        "--report", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert validate_report(report) == []
    assert report["run"]["mode"] == "kauri"


# ---------------------------------------------------------------------------
# One result record per run
# ---------------------------------------------------------------------------
TWO_CLASS_WORKLOAD = {
    "classes": [
        {"name": "browse", "population": 40_000, "rate_per_user": 0.004},
        {"name": "trade", "population": 5_000, "rate_per_user": 0.01,
         "slo_ms": 500.0},
    ],
    "keyspace": 128,
}

#: SHA-256 of every ExperimentResult field but ``report``, as computed
#: before run_experiment read its numbers from the report's sections.
RESULT_RECORDS = {
    "kauri": (
        dict(mode="kauri", scenario="national", n=7, duration=8.0),
        "e2dbba0b05678752fe4ebfd6ed15a5f17e0649ac6b64cf5130427e968bca5819",
    ),
    "kudzu": (
        dict(mode="kudzu", scenario="national", n=7, duration=8.0),
        "e9e9176c83b3ef48b01f613316b9b48c1adba7d0143068e7661cb6a33c6f7700",
    ),
    "crash": (
        dict(mode="kauri", scenario="national", n=7, duration=12.0,
             crashes=[(0, 2.0)]),
        "0b8c0b09732cf236555693934111b3c97bd1c2d537a3503422c4b852a71f066f",
    ),
    "workload": (
        dict(mode="kauri", scenario="national", n=7, duration=6.0,
             workload=TWO_CLASS_WORKLOAD),
        "8b97b876bab3b3261a5375c961245315f23060aa21bd248b7d684c3a81b77a72",
    ),
}


def _record_digest(result) -> str:
    import hashlib
    from dataclasses import asdict

    fields = {k: v for k, v in asdict(result).items() if k != "report"}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(RESULT_RECORDS))
def test_result_record_is_pinned(case):
    kwargs, digest = RESULT_RECORDS[case]
    assert _record_digest(run_experiment(**kwargs)) == digest


@pytest.mark.parametrize("case", ["crash", "workload"])
def test_result_fields_are_the_report_totals(case):
    kwargs, digest = RESULT_RECORDS[case]
    result = run_experiment(**kwargs, observability=True)
    # Observability adds the report, never moves a result field.
    assert _record_digest(result) == digest
    totals = result.report["totals"]
    assert round(result.throughput_txs, 9) == totals["throughput_txs"]
    assert round(result.throughput_blocks, 9) == totals["throughput_blocks"]
    assert {k: round(v, 9) for k, v in result.latency.items()} == totals["latency"]
    assert round(result.leader_cpu_utilization, 9) == \
        result.report["saturation"]["leader_cpu_utilization"]


def test_leader_flag_and_any_node_flag_differ_at_n31_national():
    """``ExperimentResult.cpu_saturated`` is the leader's red circle; the
    report's ``saturation.cpu_saturated`` is any node's. At N=31 national
    the internal nodes saturate while the leader does not."""
    result = run_experiment(
        mode="kauri", scenario="national", n=31, duration=6.0,
        max_commits=15, observability=True,
    )
    saturation = result.report["saturation"]
    assert saturation["leader"] == 0
    assert saturation["saturated_nodes"] == [1, 2, 3, 4, 5]
    assert saturation["cpu_saturated"] is True
    assert result.cpu_saturated is False
    assert result.leader_cpu_utilization == pytest.approx(0.83, abs=0.005)
