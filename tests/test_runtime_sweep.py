"""Sweep engine: spec hashing, backend equivalence, caching, ordering."""

import dataclasses

import pytest

from repro.config import GLOBAL, ProtocolConfig, resilientdb_clusters
from repro.errors import ConfigError
from repro.runtime.sweep import (
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    run_specs,
)

#: A small but heterogeneous grid: two modes x two sizes, national scenario
#: so every cell simulates in well under a second.
GRID = [
    ExperimentSpec(
        mode=mode, scenario="national", n=n, duration=5.0, max_commits=10
    )
    for mode in ("kauri", "hotstuff-secp")
    for n in (7, 13)
]


def as_dicts(results):
    return [dataclasses.asdict(r) for r in results]


class TestExperimentSpec:
    def test_hashable_and_equal(self):
        a = ExperimentSpec(mode="kauri", n=31, crashes=[(0, 1.0)])
        b = ExperimentSpec(mode="kauri", n=31, crashes=((0, 1.0),))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_crashes_normalised_to_tuple(self):
        spec = ExperimentSpec(crashes=[[3, 2.5]])
        assert spec.crashes == ((3, 2.5),)

    def test_key_is_stable_and_discriminating(self):
        base = ExperimentSpec(mode="kauri", scenario="national", n=7)
        assert base.key() == ExperimentSpec(
            mode="kauri", scenario="national", n=7
        ).key()
        assert base.key() != dataclasses.replace(base, seed=1).key()
        assert base.key() != dataclasses.replace(base, mode="pbft").key()

    def test_key_covers_scenario_objects(self):
        params = ExperimentSpec(scenario=GLOBAL)
        name = ExperimentSpec(scenario="global")
        clusters = ExperimentSpec(scenario=resilientdb_clusters(2))
        assert len({params.key(), name.key(), clusters.key()}) == 3

    def test_key_covers_config(self):
        base = ExperimentSpec()
        tuned = ExperimentSpec(config=ProtocolConfig(block_size=1024))
        assert base.key() != tuned.key()

    def test_run_executes_the_cell(self):
        result = ExperimentSpec(
            mode="kauri", scenario="national", n=7, duration=5.0, max_commits=10
        ).run()
        assert result.mode == "kauri"
        assert result.committed_blocks > 0


class TestBackends:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            SweepRunner(backend="threads")

    def test_serial_preserves_spec_order(self):
        results = SweepRunner(jobs=1).run(GRID)
        assert [(r.mode, r.n) for r in results] == [
            (s.mode, s.n) for s in GRID
        ]

    def test_duplicate_specs_simulated_once(self):
        runner = SweepRunner(jobs=1)
        results = runner.run([GRID[0], GRID[1], GRID[0]])
        assert runner.last_stats.executed == 2
        assert results[0] is results[2]

    def test_process_backend_matches_serial_field_by_field(self):
        """The acceptance grid: parallel runs are byte-identical to serial."""
        serial = SweepRunner(jobs=1, backend="serial").run(GRID)
        parallel = SweepRunner(jobs=4, backend="process").run(GRID)
        assert as_dicts(serial) == as_dicts(parallel)

    def test_jobs_resolution_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
        runner = SweepRunner()
        assert runner.jobs == 3
        assert runner.backend == "process"


class TestCache:
    def test_second_run_hits_cache_without_resimulating(
        self, tmp_path, monkeypatch
    ):
        grid = GRID[:2]
        first = SweepRunner(jobs=1, cache=True, cache_dir=tmp_path)
        warm = first.run(grid)
        assert first.last_stats.executed == len(grid)
        assert first.last_stats.cache_hits == 0

        # Any attempt to simulate on the second pass is an error: every
        # cell must come from the cache.
        monkeypatch.setattr(
            "repro.runtime.sweep.run_experiment",
            lambda *a, **k: pytest.fail("cache miss re-simulated a cell"),
        )
        second = SweepRunner(jobs=1, cache=True, cache_dir=tmp_path)
        cached = second.run(grid)
        assert second.last_stats.executed == 0
        assert second.last_stats.cache_hits == len(grid)
        assert as_dicts(cached) == as_dicts(warm)

    def test_cache_round_trips_every_field(self, tmp_path):
        spec = GRID[0]
        result = spec.run()
        cache = ResultCache(tmp_path)
        cache.put(spec, result)
        loaded = cache.get(spec)
        assert dataclasses.asdict(loaded) == dataclasses.asdict(result)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = GRID[0]
        cache = ResultCache(tmp_path)
        cache.root.mkdir(exist_ok=True)
        cache.path_for(spec).write_text("not json{")
        assert cache.get(spec) is None

    def test_run_specs_convenience(self, tmp_path):
        results = run_specs(GRID[:1], jobs=1, cache=True, cache_dir=tmp_path)
        assert results[0].mode == "kauri"
        assert cache_files(tmp_path) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_finished_cells_cached_when_a_later_cell_fails(self, tmp_path, jobs):
        good = ExperimentSpec(
            scenario="national", n=4, duration=2.0, max_commits=2
        )
        bad = ExperimentSpec(scenario="national", n=3, duration=2.0)
        with pytest.raises(ConfigError, match="n >= 4"):
            SweepRunner(jobs=jobs, cache=True, cache_dir=tmp_path).run(
                [good, bad]
            )
        assert ResultCache(tmp_path).get(good) is not None
        assert cache_files(tmp_path) == 1


def cache_files(path):
    return len(list(path.glob("*.json")))


class TestCrossBackendDeterminism:
    """The ISSUE acceptance criterion, end to end: the same spec grid run
    through serial and process backends yields identical ExperimentResult
    lists, and a cached re-run serves every cell from disk."""

    def test_grid_identical_across_backends_and_cached(
        self, tmp_path, monkeypatch
    ):
        serial = SweepRunner(
            jobs=1, backend="serial", cache=True, cache_dir=tmp_path
        ).run(GRID)

        monkeypatch.setattr(
            "repro.runtime.sweep.run_experiment",
            lambda *a, **k: pytest.fail("cached cell was re-simulated"),
        )
        replay = SweepRunner(
            jobs=2, backend="process", cache=True, cache_dir=tmp_path
        )
        cached = replay.run(GRID)
        assert replay.last_stats.cache_hits == len(
            {spec.key() for spec in GRID}
        )
        for a, b in zip(serial, cached):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestCacheMaintenance:
    """`repro cache stats|prune`: inventory and bounding of the on-disk
    result cache, without ever touching live (current-schema) entries
    unless age/size budgets demand it."""

    @staticmethod
    def _seed_cache(root, now):
        import json as json_mod
        import os

        from repro.runtime.sweep import CACHE_SCHEMA

        def put(name, payload, age_s):
            path = root / name
            path.write_text(payload)
            os.utime(path, (now - age_s, now - age_s))
            return path

        put("old.json", json_mod.dumps({"schema": CACHE_SCHEMA, "x": "a" * 400}),
            age_s=10 * 86400)
        put("fresh.json", json_mod.dumps({"schema": CACHE_SCHEMA, "x": "b" * 400}),
            age_s=3600)
        put("stale.json", json_mod.dumps({"schema": CACHE_SCHEMA - 1}),
            age_s=7200)
        put("broken.json", "{not json", age_s=7200)
        put("partial.tmp", "x" * 50, age_s=60)

    def test_stats_inventories_without_modifying(self, tmp_path):
        import time

        from repro.runtime.sweep import cache_stats

        now = time.time()
        self._seed_cache(tmp_path, now)
        stats = cache_stats(root=tmp_path, now=now)
        assert stats.entries == 4
        assert stats.stale == 1
        assert stats.corrupt == 1
        assert stats.tmp_files == 1
        assert stats.oldest_age_s == pytest.approx(10 * 86400, rel=0.01)
        assert stats.newest_age_s == pytest.approx(3600, rel=0.01)
        assert len(list(tmp_path.iterdir())) == 5  # nothing removed

    def test_stats_on_missing_directory_is_empty(self, tmp_path):
        from repro.runtime.sweep import cache_stats

        stats = cache_stats(root=tmp_path / "nope")
        assert stats.entries == 0 and stats.size_bytes == 0

    def test_prune_removes_tmp_stale_and_corrupt(self, tmp_path):
        import time

        from repro.runtime.sweep import cache_stats, prune_cache

        now = time.time()
        self._seed_cache(tmp_path, now)
        result = prune_cache(root=tmp_path, now=now)
        assert result.removed == 3  # tmp + stale + corrupt
        assert result.kept == 2
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"old.json", "fresh.json"}
        after = cache_stats(root=tmp_path, now=now)
        assert after.stale == 0 and after.corrupt == 0 and after.tmp_files == 0

    def test_prune_by_age_keeps_recent_entries(self, tmp_path):
        import time

        from repro.runtime.sweep import prune_cache

        now = time.time()
        self._seed_cache(tmp_path, now)
        result = prune_cache(root=tmp_path, max_age_days=7, now=now)
        assert result.kept == 1
        assert (tmp_path / "fresh.json").exists()
        assert not (tmp_path / "old.json").exists()

    def test_prune_by_size_drops_oldest_first(self, tmp_path):
        import time

        from repro.runtime.sweep import prune_cache

        now = time.time()
        self._seed_cache(tmp_path, now)
        # Both survivors are ~420 bytes; a 0.0005 MB budget (500 bytes)
        # forces the oldest one out and keeps the newest.
        result = prune_cache(root=tmp_path, max_size_mb=0.0005, now=now)
        assert (tmp_path / "fresh.json").exists()
        assert not (tmp_path / "old.json").exists()
        assert result.kept == 1

    def test_prune_dry_run_deletes_nothing(self, tmp_path):
        import time

        from repro.runtime.sweep import prune_cache

        now = time.time()
        self._seed_cache(tmp_path, now)
        before = sorted(p.name for p in tmp_path.iterdir())
        result = prune_cache(root=tmp_path, dry_run=True, now=now)
        assert result.removed == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_keep_stale_preserves_old_schema_entries(self, tmp_path):
        import time

        from repro.runtime.sweep import prune_cache

        now = time.time()
        self._seed_cache(tmp_path, now)
        result = prune_cache(root=tmp_path, drop_stale=False, now=now)
        assert result.removed == 1  # only the .tmp leftover
        assert (tmp_path / "stale.json").exists()
        assert (tmp_path / "broken.json").exists()

    def test_prune_composes_with_live_result_cache(self, tmp_path):
        """Entries written by ResultCache survive a default prune and are
        still served afterwards."""
        from repro.runtime.sweep import prune_cache

        runner = SweepRunner(
            jobs=1, backend="serial", cache=True, cache_dir=tmp_path
        )
        first = runner.run(GRID[:1])
        result = prune_cache(root=tmp_path)
        assert result.removed == 0 and result.kept == 1
        replay = SweepRunner(
            jobs=1, backend="serial", cache=True, cache_dir=tmp_path
        )
        again = replay.run(GRID[:1])
        assert replay.last_stats.cache_hits == 1
        assert dataclasses.asdict(first[0]) == dataclasses.asdict(again[0])
