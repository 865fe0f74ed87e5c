"""Declarative sweep engine: experiment grids as values, scheduled by a runner.

Every paper artifact (Figs. 5-12, Tables 1-2, the ablations) is a grid of
independent deterministic simulations. This module makes one grid cell a
first-class value -- :class:`ExperimentSpec`, a frozen, hashable mirror of
the :func:`~repro.runtime.experiment.run_experiment` signature -- and
provides :class:`SweepRunner`, which schedules a list of specs across
pluggable backends:

- ``serial``  -- run cells in order in the current process;
- ``process`` -- fan cells out over a ``ProcessPoolExecutor``.

Results come back **in spec order** and are byte-identical across backends:
each worker builds its own :class:`~repro.sim.engine.Simulator` from the
spec's seed, so determinism is preserved by construction and paralleling a
sweep can never change its numbers.

An optional on-disk cache (default ``benchmarks/results/.cache/``) keyed by
a *stable* spec hash (SHA-256 of the canonical spec encoding -- not
Python's salted ``hash()``) lets a re-run of a figure skip completed cells.
Invalidation rule: the key covers every spec field plus ``CACHE_SCHEMA``;
bump :data:`CACHE_SCHEMA` (or delete the cache directory) whenever the
simulator's behaviour changes in a way that alters results for an unchanged
spec.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.config import ClusterParams, NetworkParams, ProtocolConfig
from repro.errors import ConfigError
from repro.runtime.experiment import ExperimentResult, run_experiment
from repro.runtime.workload import WorkloadSpec

#: Bump whenever simulation semantics change such that an unchanged spec
#: would produce different numbers; stale cache entries are then ignored.
#: 2: half-open measurement windows + windowed (exact) leader utilization.
CACHE_SCHEMA = 2

#: Version of the *workload engine's* reported numbers, keyed into the
#: canonical form only for workload-bearing specs: bumping it invalidates
#: cached workload cells without moving a single classic cache key (those
#: are pinned byte-identical by test).
#: 2: histogram-backed e2e latency percentiles (ingest fast path).
WORKLOAD_ENGINE_VERSION = 2

#: Environment override for the default cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"

#: Environment default for the worker count when ``jobs`` is not given.
JOBS_ENV = "REPRO_SWEEP_JOBS"

Scenario = Union[str, NetworkParams, ClusterParams]


def _encode_scenario(scenario: Scenario) -> Any:
    """Canonical, JSON-able encoding of every accepted scenario form."""
    if isinstance(scenario, str):
        return ["name", scenario]
    if isinstance(scenario, NetworkParams):
        return ["params", scenario.name, scenario.rtt, scenario.bandwidth_bps]
    if isinstance(scenario, ClusterParams):
        return [
            "clusters",
            scenario.name,
            list(scenario.cluster_sizes),
            _encode_scenario(scenario.intra),
            sorted(
                (list(pair), _encode_scenario(params))
                for pair, params in scenario.inter.items()
            ),
        ]
    raise ConfigError(f"unsupported scenario type: {type(scenario).__name__}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One grid cell: the full ``run_experiment`` signature as a value.

    Frozen and hashable (``crashes`` is normalised to a tuple of tuples),
    so specs can key dictionaries, deduplicate inside grids, and address
    the on-disk result cache. :meth:`run` executes the cell.
    """

    mode: str = "kauri"
    scenario: Scenario = "global"
    n: Optional[int] = 100
    block_size: Optional[int] = None
    stretch: Optional[float] = None
    height: int = 2
    root_fanout: Optional[int] = None
    duration: float = 60.0
    warmup_fraction: float = 0.25
    max_commits: Optional[int] = None
    seed: int = 0
    config: Optional[ProtocolConfig] = None
    crashes: Tuple[Tuple[int, float], ...] = ()
    uplink_lanes: int = 1
    saturation_threshold: float = 0.95
    observability: bool = False
    #: Workload-engine spec; None keeps the classic saturated block-filler
    #: (and, crucially, the classic cache key -- see :meth:`canonical`).
    workload: Optional[WorkloadSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "crashes",
            tuple((int(node), float(when)) for node, when in self.crashes),
        )
        if self.workload is not None and not isinstance(self.workload, WorkloadSpec):
            object.__setattr__(
                self, "workload", WorkloadSpec.from_mapping(self.workload)
            )

    # ``scenario`` may be a ClusterParams (carries a dict), so the
    # field-generated hash is unusable; hash the stable key instead.
    def __hash__(self) -> int:
        return hash(self.key())

    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, Any]:
        """JSON-able encoding covering every field; the cache-key input."""
        config = (
            None
            if self.config is None
            else sorted(dataclasses.asdict(self.config).items())
        )
        canonical = {
            "schema": CACHE_SCHEMA,
            "mode": self.mode,
            "scenario": _encode_scenario(self.scenario),
            "n": self.n,
            "block_size": self.block_size,
            "stretch": self.stretch,
            "height": self.height,
            "root_fanout": self.root_fanout,
            "duration": self.duration,
            "warmup_fraction": self.warmup_fraction,
            "max_commits": self.max_commits,
            "seed": self.seed,
            "config": config,
            "crashes": [list(c) for c in self.crashes],
            "uplink_lanes": self.uplink_lanes,
            "saturation_threshold": self.saturation_threshold,
            "observability": self.observability,
        }
        # Strictly conditional: classic specs must hash exactly as they did
        # before the workload field existed (cached results stay valid).
        # The engine version key invalidates *only* workload-bearing cells
        # when the workload engine's reported numbers change (v2: the
        # histogram-backed ingest fast path); classic keys never move.
        if self.workload is not None:
            canonical["workload"] = self.workload.canonical()
            canonical["workload_engine"] = WORKLOAD_ENGINE_VERSION
        return canonical

    def key(self) -> str:
        """Stable content hash (identical across processes and sessions)."""
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute this cell in the current process."""
        return run_experiment(
            mode=self.mode,
            scenario=self.scenario,
            n=self.n,
            block_size=self.block_size,
            stretch=self.stretch,
            height=self.height,
            root_fanout=self.root_fanout,
            duration=self.duration,
            warmup_fraction=self.warmup_fraction,
            max_commits=self.max_commits,
            seed=self.seed,
            config=self.config,
            crashes=self.crashes,
            uplink_lanes=self.uplink_lanes,
            saturation_threshold=self.saturation_threshold,
            observability=self.observability,
            workload=self.workload,
        )


def _run_spec(spec: ExperimentSpec) -> ExperimentResult:
    """Module-level worker entry point (picklable for the process pool)."""
    return spec.run()


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------
def default_cache_dir() -> Path:
    """``$REPRO_SWEEP_CACHE_DIR`` or ``<repo>/benchmarks/results/.cache``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    repo_root = Path(__file__).resolve().parents[3]
    return repo_root / "benchmarks" / "results" / ".cache"


class ResultCache:
    """Directory of ``<spec-key>.json`` files, one per completed cell.

    Corrupt, unreadable, or schema-mismatched entries count as misses;
    writes are atomic (temp file + rename) so interrupted sweeps never
    leave half-written entries behind.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, spec: ExperimentSpec) -> Path:
        return self.root / f"{spec.key()}.json"

    def get(self, spec: ExperimentSpec) -> Optional[ExperimentResult]:
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != CACHE_SCHEMA:
                return None
            return ExperimentResult(**payload["result"])
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def put(self, spec: ExperimentSpec, result: ExperimentResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "spec": spec.canonical(),
            "result": dataclasses.asdict(result),
        }
        path = self.path_for(spec)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(path)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
@dataclass
class SweepStats:
    """What the last :meth:`SweepRunner.run` actually did."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    backend: str = "serial"
    jobs: int = 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """``jobs`` if given, else ``$REPRO_SWEEP_JOBS``, else 1."""
    if jobs is not None:
        return max(1, int(jobs))
    raw = os.environ.get(JOBS_ENV, "1") or "1"
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(
            f"${JOBS_ENV} must be an integer, got {raw!r}"
        ) from None


class SweepRunner:
    """Schedule a list of :class:`ExperimentSpec` across a backend.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` reads ``$REPRO_SWEEP_JOBS`` (default 1).
    backend:
        ``"serial"`` or ``"process"``; ``None`` picks ``"process"`` when
        ``jobs > 1`` and ``"serial"`` otherwise.
    cache:
        Enable the on-disk result cache.
    cache_dir:
        Cache location; defaults to :func:`default_cache_dir`.
    """

    BACKENDS = ("serial", "process")

    def __init__(
        self,
        jobs: Optional[int] = None,
        backend: Optional[str] = None,
        cache: bool = False,
        cache_dir: Optional[Union[str, Path]] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        if backend is None:
            backend = "process" if self.jobs > 1 else "serial"
        if backend not in self.BACKENDS:
            raise ConfigError(
                f"unknown sweep backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.backend = backend
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache else None
        )
        self.last_stats = SweepStats(backend=self.backend, jobs=self.jobs)

    # ------------------------------------------------------------------
    def run(self, specs: Iterable[ExperimentSpec]) -> List[ExperimentResult]:
        """Run every spec; results align index-for-index with the input.

        Identical specs inside one grid are simulated once (determinism
        makes duplicates redundant); cached cells are never re-simulated.
        """
        ordered: List[ExperimentSpec] = list(specs)
        results: List[Optional[ExperimentResult]] = [None] * len(ordered)
        stats = SweepStats(
            total=len(ordered), backend=self.backend, jobs=self.jobs
        )

        # Deduplicate by stable key, preserving first-seen order.
        slots: Dict[str, List[int]] = {}
        unique: List[ExperimentSpec] = []
        for index, spec in enumerate(ordered):
            key = spec.key()
            if key not in slots:
                slots[key] = []
                unique.append(spec)
            slots[key].append(index)

        pending: List[ExperimentSpec] = []
        for spec in unique:
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                stats.cache_hits += 1
                for index in slots[spec.key()]:
                    results[index] = cached
            else:
                pending.append(spec)

        for spec, result in zip(pending, self._execute(pending)):
            stats.executed += 1
            if self.cache is not None:
                self.cache.put(spec, result)
            for index in slots[spec.key()]:
                results[index] = result

        self.last_stats = stats
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _execute(
        self, specs: Sequence[ExperimentSpec]
    ) -> Iterator[ExperimentResult]:
        """Yield each spec's result in input order as soon as it exists,
        so :meth:`run` caches a finished cell before a later one can fail."""
        if self.backend == "serial" or len(specs) <= 1 or self.jobs == 1:
            for spec in specs:
                yield spec.run()
            return
        workers = min(self.jobs, len(specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_run_spec, specs)


def run_specs(
    specs: Iterable[ExperimentSpec],
    jobs: Optional[int] = None,
    cache: bool = False,
    cache_dir: Optional[Union[str, Path]] = None,
) -> List[ExperimentResult]:
    """One-shot convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(jobs=jobs, cache=cache, cache_dir=cache_dir).run(specs)


# ---------------------------------------------------------------------------
# Cache maintenance
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class CacheStats:
    """One inventory pass over a result-cache directory."""

    root: str
    entries: int = 0
    size_bytes: int = 0
    #: Entries whose recorded schema differs from the current CACHE_SCHEMA
    #: (dead weight: ``ResultCache.get`` already treats them as misses).
    stale: int = 0
    #: Unreadable/corrupt entry files (also dead weight).
    corrupt: int = 0
    #: Leftover ``.tmp`` files from interrupted atomic writes.
    tmp_files: int = 0
    oldest_age_s: float = 0.0
    newest_age_s: float = 0.0


@dataclasses.dataclass
class PruneResult:
    """What one :func:`prune_cache` pass removed."""

    removed: int = 0
    freed_bytes: int = 0
    kept: int = 0


def _cache_entries(root: Path) -> List[Tuple[Path, "os.stat_result"]]:
    """(path, stat) for every entry file, oldest first (mtime, then name,
    so prune order is deterministic even with equal timestamps)."""
    entries = []
    for path in root.glob("*.json"):
        try:
            entries.append((path, path.stat()))
        except OSError:
            continue
    entries.sort(key=lambda item: (item[1].st_mtime, item[0].name))
    return entries


def _entry_schema(path: Path) -> Optional[int]:
    try:
        return json.loads(path.read_text()).get("schema")
    except (OSError, ValueError):
        return None


def cache_stats(
    root: Optional[Union[str, Path]] = None, now: Optional[float] = None
) -> CacheStats:
    """Inventory the on-disk sweep cache (never modifies it)."""
    root_path = Path(root) if root is not None else default_cache_dir()
    stats = CacheStats(root=str(root_path))
    if not root_path.is_dir():
        return stats
    reference = time.time() if now is None else now
    ages = []
    for path, stat in _cache_entries(root_path):
        stats.entries += 1
        stats.size_bytes += stat.st_size
        ages.append(max(0.0, reference - stat.st_mtime))
        schema = _entry_schema(path)
        if schema is None:
            stats.corrupt += 1
        elif schema != CACHE_SCHEMA:
            stats.stale += 1
    for tmp in root_path.glob("*.tmp"):
        stats.tmp_files += 1
        try:
            stats.size_bytes += tmp.stat().st_size
        except OSError:
            continue
    if ages:
        stats.oldest_age_s = max(ages)
        stats.newest_age_s = min(ages)
    return stats


def prune_cache(
    root: Optional[Union[str, Path]] = None,
    max_age_days: Optional[float] = None,
    max_size_mb: Optional[float] = None,
    drop_stale: bool = True,
    dry_run: bool = False,
    now: Optional[float] = None,
) -> PruneResult:
    """Bound the sweep cache by age and total size.

    Removal passes, in order: leftover ``.tmp`` files from interrupted
    writes; entries that are corrupt or carry a non-current schema (when
    ``drop_stale``, the default -- ``ResultCache.get`` never returns them
    anyway); entries older than ``max_age_days``; then, if the directory
    still exceeds ``max_size_mb``, the oldest surviving entries until it
    fits. ``dry_run`` counts without deleting.
    """
    root_path = Path(root) if root is not None else default_cache_dir()
    result = PruneResult()
    if not root_path.is_dir():
        return result
    reference = time.time() if now is None else now

    def remove(path: Path, size: int) -> None:
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                return
        result.removed += 1
        result.freed_bytes += size

    for tmp in root_path.glob("*.tmp"):
        try:
            size = tmp.stat().st_size
        except OSError:
            size = 0
        remove(tmp, size)

    survivors = []
    for path, stat in _cache_entries(root_path):
        schema = _entry_schema(path)
        if drop_stale and schema != CACHE_SCHEMA:
            remove(path, stat.st_size)
            continue
        if (
            max_age_days is not None
            and reference - stat.st_mtime > max_age_days * 86400.0
        ):
            remove(path, stat.st_size)
            continue
        survivors.append((path, stat))

    if max_size_mb is not None:
        budget = max_size_mb * 1_000_000.0
        total = sum(stat.st_size for _, stat in survivors)
        index = 0
        while total > budget and index < len(survivors):
            path, stat = survivors[index]  # oldest first
            remove(path, stat.st_size)
            total -= stat.st_size
            index += 1
        survivors = survivors[index:]

    result.kept = len(survivors)
    return result
