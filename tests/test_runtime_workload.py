"""Workload engine: load shapes, MMPP, Zipf skew, aggregate client
classes, admission control, SLO accounting, and sweep/report plumbing."""

import json
import random

import pytest

from repro import Cluster, ProtocolConfig
from repro.errors import ConfigError
from repro.runtime.clients import MempoolWorkload
from repro.runtime.sweep import ExperimentSpec, SweepRunner
from repro.runtime.workload import (
    ClientClassSpec,
    LoadShape,
    MmppModulator,
    WorkloadHarness,
    WorkloadSpec,
    ZipfSampler,
    capacity_sweep,
    make_workload_factory,
    saturation_knee,
)


def simple_spec(**overrides):
    defaults = dict(
        classes=(
            ClientClassSpec(name="users", population=50_000, rate_per_user=0.004),
        ),
        keyspace=128,
        zipf_s=1.0,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def run_workload(spec, seed=0, duration=10.0, n=7):
    config = ProtocolConfig()
    cluster = Cluster(
        n=n,
        mode="kauri",
        scenario="national",
        config=config,
        seed=seed,
        workload_factory=make_workload_factory(spec, config),
    )
    harness = WorkloadHarness(cluster, spec, seed=seed)
    cluster.start()
    harness.start()
    cluster.run(duration=duration)
    return cluster, harness


# ---------------------------------------------------------------------------
# Load shapes
# ---------------------------------------------------------------------------
class TestLoadShape:
    def test_steady_is_identity(self):
        shape = LoadShape()
        assert shape.multiplier(0.0) == 1.0
        assert shape.multiplier(12345.6) == 1.0

    def test_diurnal_oscillates_between_low_and_one(self):
        shape = LoadShape(kind="diurnal", period=100.0, low=0.2)
        assert shape.multiplier(0.0) == pytest.approx(0.2)  # trough at t=0
        assert shape.multiplier(50.0) == pytest.approx(1.0)  # peak mid-period
        assert shape.multiplier(100.0) == pytest.approx(0.2)
        for t in range(0, 100, 7):
            assert 0.2 <= shape.multiplier(float(t)) <= 1.0 + 1e-12

    def test_burst_is_a_square_pulse(self):
        shape = LoadShape(kind="burst", start=10.0, duration=5.0, factor=3.0)
        assert shape.multiplier(9.99) == 1.0
        assert shape.multiplier(10.0) == 3.0
        assert shape.multiplier(14.99) == 3.0
        assert shape.multiplier(15.0) == 1.0

    def test_flash_spikes_then_decays_toward_one(self):
        shape = LoadShape(kind="flash", start=5.0, factor=10.0, decay=2.0)
        assert shape.multiplier(4.9) == 1.0
        assert shape.multiplier(5.0) == pytest.approx(10.0)
        later = shape.multiplier(9.0)
        assert 1.0 < later < 10.0
        assert shape.multiplier(50.0) == pytest.approx(1.0, abs=1e-6)

    def test_shapes_compose_by_multiplication(self):
        burst = LoadShape(kind="burst", start=0.0, duration=100.0, factor=2.0)
        assert LoadShape.compose((burst, burst), 1.0) == pytest.approx(4.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            LoadShape(kind="sawtooth")

    def test_from_mapping_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            LoadShape.from_mapping({"kind": "burst", "amplitude": 2.0})


class TestMmpp:
    def test_deterministic_given_seed(self):
        states = ((0.5, 3.0), (2.0, 1.0))
        a = MmppModulator(states, random.Random("x"))
        b = MmppModulator(states, random.Random("x"))
        ts = [i * 0.37 for i in range(200)]
        assert [a.multiplier(t) for t in ts] == [b.multiplier(t) for t in ts]

    def test_cycles_through_states(self):
        modulator = MmppModulator(((1.0, 1.0), (5.0, 1.0)), random.Random(7))
        seen = {modulator.multiplier(t * 0.25) for t in range(400)}
        assert seen == {1.0, 5.0}

    def test_rejects_empty_or_invalid_states(self):
        with pytest.raises(ConfigError):
            MmppModulator((), random.Random(0))
        with pytest.raises(ConfigError):
            MmppModulator(((1.0, 0.0),), random.Random(0))


class TestZipfSampler:
    def test_hot_keys_dominate(self):
        sampler = ZipfSampler(64, 1.0, random.Random(0))
        counts = [0] * 64
        for _ in range(20_000):
            counts[sampler.sample()] += 1
        # Rank 0 is the hottest key and the head outweighs the tail.
        assert counts[0] == max(counts)
        assert counts[0] > 4 * counts[32]
        assert sum(counts[:8]) > sum(counts[32:])

    def test_uniform_when_s_zero(self):
        sampler = ZipfSampler(16, 0.0, random.Random(1))
        counts = [0] * 16
        for _ in range(16_000):
            counts[sampler.sample()] += 1
        assert min(counts) > 700  # ~1000 each; grossly uniform

    def test_samples_stay_in_range(self):
        sampler = ZipfSampler(5, 2.0, random.Random(2))
        assert all(0 <= sampler.sample() < 5 for _ in range(1000))


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------
class TestSpecs:
    def test_steady_rate_is_population_times_rate(self):
        cls = ClientClassSpec(name="a", population=1_000_000, rate_per_user=0.001)
        assert cls.steady_rate == pytest.approx(1000.0)

    def test_from_mapping_round_trips_canonical(self):
        mapping = {
            "classes": [
                {
                    "name": "mobile",
                    "population": 1000,
                    "rate_per_user": 0.5,
                    "shapes": [{"kind": "diurnal", "period": 60.0}],
                    "mmpp": [[0.5, 4.0], [2.0, 2.0]],
                    "slo_ms": 750.0,
                },
            ],
            "capacity_txs": 100,
            "policy": "defer",
        }
        spec = WorkloadSpec.from_mapping(mapping)
        assert spec.classes[0].shapes[0].kind == "diurnal"
        assert spec.classes[0].mmpp == ((0.5, 4.0), (2.0, 2.0))
        again = WorkloadSpec.from_mapping(json.loads(json.dumps(mapping)))
        assert spec.canonical() == again.canonical()

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            WorkloadSpec.from_mapping({"classes": [], "burst": True})
        with pytest.raises(ConfigError):
            WorkloadSpec.from_mapping(
                {"classes": [{"name": "a", "population": 1,
                              "rate_per_user": 1.0, "zipf": 2}]}
            )

    def test_duplicate_class_names_rejected(self):
        cls = ClientClassSpec(name="a", population=1, rate_per_user=1.0)
        with pytest.raises(ConfigError):
            WorkloadSpec(classes=(cls, cls))

    def test_invalid_policy_and_capacity_rejected(self):
        with pytest.raises(ConfigError):
            simple_spec(policy="shed")
        with pytest.raises(ConfigError):
            simple_spec(capacity_txs=0)


# ---------------------------------------------------------------------------
# Arrival determinism (the superposition engine)
# ---------------------------------------------------------------------------
class TestArrivalDeterminism:
    def test_same_seed_same_arrivals(self):
        spec = simple_spec()
        _, a = run_workload(spec, seed=3, duration=8.0)
        _, b = run_workload(spec, seed=3, duration=8.0)
        assert a.summary() == b.summary()

    def test_different_seeds_differ(self):
        spec = simple_spec()
        _, a = run_workload(spec, seed=1, duration=8.0)
        _, b = run_workload(spec, seed=2, duration=8.0)
        assert a.summary()["totals"]["generated"] != \
            b.summary()["totals"]["generated"]

    def test_expected_count_tracks_rate_without_jitter(self):
        spec = simple_spec(jitter=False)
        _, harness = run_workload(spec, duration=10.0)
        generated = harness.summary()["totals"]["generated"]
        # 200 tx/s for ~10 s of arrivals; accounting ticks make it exact
        # up to one batch of fractional backlog.
        assert abs(generated - 2000) <= 2000 * 0.05

    def test_sweep_backends_agree(self):
        spec = ExperimentSpec(
            n=7, scenario="national", duration=6.0, workload=simple_spec()
        )
        from repro.runtime.sweep import SweepRunner

        serial = SweepRunner(jobs=1, backend="serial").run([spec])[0]
        process = SweepRunner(jobs=2, backend="process").run([spec, spec])[0]
        assert serial.workload == process.workload
        assert serial.throughput_txs == process.throughput_txs


# ---------------------------------------------------------------------------
# Admission control / backpressure
# ---------------------------------------------------------------------------
class TestBackpressure:
    def test_drop_policy_conserves_offered(self):
        # Capacity below one accounting tick's batch (~20 txs), so every
        # tick must shed load no matter how fast proposals drain.
        spec = simple_spec(capacity_txs=10, policy="drop")
        cluster, harness = run_workload(spec, duration=10.0)
        offered = admitted = dropped = 0
        for node in cluster.nodes:
            offered += node.workload.offered
            admitted += node.workload.admitted
            dropped += node.workload.dropped
        assert offered == admitted + dropped
        assert dropped > 0  # 200 tx/s into a 10-tx mempool must shed load
        totals = harness.summary()["totals"]
        assert totals["offered"] == offered
        assert totals["dropped"] == dropped
        assert totals["drop_rate"] == pytest.approx(dropped / offered)

    def test_defer_policy_never_drops(self):
        spec = simple_spec(capacity_txs=10, policy="defer")
        cluster, harness = run_workload(spec, duration=10.0)
        offered = admitted = deferred = 0
        for node in cluster.nodes:
            offered += node.workload.offered
            admitted += node.workload.admitted
            deferred += node.workload.deferred_txs
            assert node.workload.dropped == 0
        assert offered == admitted + deferred
        assert harness.summary()["totals"]["dropped"] == 0

    def test_per_class_drop_attribution(self):
        spec = WorkloadSpec(
            classes=(
                ClientClassSpec(name="heavy", population=90_000,
                                rate_per_user=0.004),
                ClientClassSpec(name="light", population=2_000,
                                rate_per_user=0.004),
            ),
            capacity_txs=15,
        )
        _, harness = run_workload(spec, duration=8.0)
        by_name = {
            entry["name"]: entry for entry in harness.summary()["classes"]
        }
        assert by_name["heavy"]["dropped"] > by_name["light"]["dropped"]
        for entry in by_name.values():
            assert entry["admitted"] + entry["dropped"] <= entry["generated"]


# ---------------------------------------------------------------------------
# SLO + summary shape
# ---------------------------------------------------------------------------
class TestSummary:
    def test_summary_has_tail_percentiles_and_slo(self):
        _, harness = run_workload(simple_spec(), duration=10.0)
        summary = harness.summary()
        latency = summary["totals"]["latency"]
        for key in ("mean", "max", "count", "p50", "p95", "p99", "p999"):
            assert key in latency
        entry = summary["classes"][0]
        assert entry["committed"] == latency["count"]
        slo = entry["slo"]
        assert 0.0 <= slo["attainment"] <= 1.0
        assert slo["met"] is (slo["observed_ms"] <= slo["target_ms"])

    def test_kv_application_sees_zipf_keys(self):
        from repro.app.kvstore import OpRegistry, attach_kv_application

        spec = simple_spec(keyspace=32, zipf_s=1.2)
        config = ProtocolConfig()
        cluster = Cluster(
            n=7, mode="kauri", scenario="national", config=config, seed=0,
            workload_factory=make_workload_factory(spec, config),
        )
        registry = OpRegistry()
        machines = attach_kv_application(cluster, registry)
        harness = WorkloadHarness(cluster, spec, registry=registry, seed=0)
        cluster.start()
        harness.start()
        cluster.run(duration=8.0)
        machine = machines[0]
        assert machine.ops_applied > 0
        assert set(machine.state) <= {f"k{i}" for i in range(32)}
        # Zipf skew: the hot key must have been written.
        assert "k0" in machine.state


class TestSaturationKnee:
    def test_knee_is_last_good_point(self):
        points = [
            {"goodput": 0.99, "slo_met": True},
            {"goodput": 0.97, "slo_met": True},
            {"goodput": 0.5, "slo_met": False},
        ]
        assert saturation_knee(points) == 1

    def test_no_good_point_gives_minus_one(self):
        assert saturation_knee([{"goodput": 0.1, "slo_met": False}]) == -1

    def test_capacity_sweep_specs_pinned(self):
        # Recorded from `repro capacity --n 4 --users 100 --points 2
        # --scenario national --duration 2` before the sweep moved here:
        # the same cells, so cached capacity results keep hitting.
        class Recording(SweepRunner):
            def run(self, specs):
                self.specs = list(specs)
                return super().run(self.specs)

        runner = Recording()
        points, knee, results = capacity_sweep(
            ExperimentSpec(mode="kauri", scenario="national", n=4, duration=2.0),
            users=100,
            rate_per_user=0.001,
            levels=2,
            runner=runner,
        )
        assert [spec.key() for spec in runner.specs] == [
            "7427a8b856aa5bbe4653d2379c38639bc6edbb1e272ab0429ce721b21e434a2e",
            "3c29cf5dbc3e1bed297d607e0a3799656b62e9bec6e4d0994e0ab50c32324413",
        ]
        assert [point["users"] for point in points] == [100, 200]
        assert len(results) == 2
        assert knee == saturation_knee(points)


# ---------------------------------------------------------------------------
# Plumbing: spec cache keys, reports, packs
# ---------------------------------------------------------------------------
class TestPlumbing:
    def test_classic_cache_keys_unchanged(self):
        # Pinned before the workload field existed: adding it must not
        # perturb cache keys (or goldens) of non-workload specs.
        assert ExperimentSpec().key() == (
            "1da26d6a47818cd2f0005243d24cf1bbfab1b058ca57fda0aedd946623551c88"
        )
        assert ExperimentSpec(
            mode="hotstuff-bls", scenario="national", n=7, seed=1,
            observability=True,
        ).key() == (
            "a90c87cfb9c46286278b0ac28800042c884344fc8d03281012f8a3cd394e78f0"
        )

    def test_workload_changes_the_cache_key(self):
        base = ExperimentSpec(n=7, duration=5.0)
        loaded = ExperimentSpec(n=7, duration=5.0, workload=simple_spec())
        other = ExperimentSpec(
            n=7, duration=5.0, workload=simple_spec(capacity_txs=10)
        )
        assert len({base.key(), loaded.key(), other.key()}) == 3

    def test_spec_accepts_mapping_form(self):
        spec = ExperimentSpec(workload={
            "classes": [
                {"name": "a", "population": 10, "rate_per_user": 1.0}
            ],
        })
        assert isinstance(spec.workload, WorkloadSpec)

    def test_report_has_workload_section_only_for_workload_runs(self):
        from repro.obs.report import validate_report
        from repro.runtime.experiment import run_experiment

        plain = run_experiment(
            n=7, scenario="national", duration=6.0, observability=True
        )
        assert "workload" not in plain.report
        assert plain.workload is None

        loaded = run_experiment(
            n=7, scenario="national", duration=6.0, observability=True,
            workload=simple_spec(),
        )
        assert validate_report(loaded.report) == []
        section = loaded.report["workload"]
        assert section["totals"]["generated"] > 0
        assert loaded.workload["totals"]["generated"] == \
            section["totals"]["generated"]

    def test_capacity_smoke_pack_compiles_with_workload(self):
        from repro.scenarios import compile_pack, load_pack

        grid = compile_pack(load_pack("capacity-smoke"))
        assert len(grid.cells) == 2
        for cell in grid.cells:
            assert isinstance(cell.spec.workload, WorkloadSpec)
            assert cell.spec.workload.capacity_txs == 1500
        small, large = grid.cells
        assert small.spec.workload.total_population == 100_000
        assert large.spec.workload.total_population == 400_000
        # Differently sized populations must hash differently.
        assert small.spec.key() != large.spec.key()
