"""Lower scenario packs to frozen :class:`ExperimentSpec` grids.

The compiler is the proof obligation of the pack subsystem: a pack for an
existing figure must lower to **byte-identical** specs (same
``_encode_scenario`` cache keys) as the pre-pack inline grids, so the
on-disk result cache and the golden RunReports keep hitting. To that end
it reuses the exact same building blocks the figure generators always
used -- :func:`repro.runtime.horizon.adaptive_duration` for model-driven
horizons, ``int(blocks * scale) or blocks // 10`` for commit budgets,
``SCENARIOS`` / ``with_rtt`` / ``resilientdb_clusters`` for scenarios --
rather than re-deriving any of them.

Value-level validation lives here (the loader is structural): unknown
modes list the registry, unknown scenarios list the catalog, and fault
schedules that exceed the deployment's resilience are rejected as an
impossible quorum.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import (
    KB,
    SCENARIOS,
    ClusterParams,
    NetworkParams,
    ProtocolConfig,
    max_faults,
    mbps,
    ms,
    resilientdb_clusters,
)
from repro.core.modes import MODES
from repro.errors import ConfigError
from repro.runtime.horizon import adaptive_duration
from repro.runtime.sweep import ExperimentSpec, Scenario
from repro.runtime.workload import WorkloadSpec
from repro.scenarios.loader import (
    CELL_FIELDS,
    SCENARIO_KEYS,
    PackError,
    PackGrid,
    ScenarioPack,
    _check_keys,
    _suggest,
    _validate_axis,
)

#: Named multi-cluster deployments packs may reference via ``clusters = ...``.
CLUSTER_SCENARIOS = {"resilientdb": resilientdb_clusters}

#: Default model block size for adaptive horizons when the cell sets none
#: (matches ``ProtocolConfig().block_size``, the figures' 250 KB).
_DEFAULT_BLOCK = ProtocolConfig().block_size

_CONFIG_KEYS = tuple(f.name for f in dataclass_fields(ProtocolConfig))


def parse_scenario(raw: Any, where: str) -> Scenario:
    """Lower a pack ``scenario`` value to the sweep engine's vocabulary.

    - a string names a registered homogeneous scenario (kept as the
      string, so the cache key stays in the compact ``["name", ...]`` form);
    - ``{name=..., rtt_ms=..., bandwidth_mbps=...}`` builds a fresh
      :class:`NetworkParams`;
    - ``{base="regional", rtt_ms=50}`` derives from a registered scenario,
      keeping its name (the Figure 7 idiom);
    - ``{clusters="resilientdb", per_cluster=10}`` builds a heterogeneous
      multi-cluster deployment.
    """
    if isinstance(raw, str):
        if raw not in SCENARIOS:
            raise PackError(
                f"{where}: unknown scenario {raw!r}"
                f"{_suggest(raw, list(SCENARIOS))} "
                f"(registered: {', '.join(sorted(SCENARIOS))}; use a table "
                "for derived or cluster scenarios)"
            )
        return raw
    if not isinstance(raw, Mapping):
        raise PackError(
            f"{where}: scenario must be a name or a table, got "
            f"{type(raw).__name__}"
        )
    _check_keys(raw, SCENARIO_KEYS, where)
    forms = [key for key in ("name", "base", "clusters") if key in raw]
    if len(forms) != 1:
        raise PackError(
            f"{where}: a scenario table needs exactly one of "
            f"'name', 'base', or 'clusters' (got {forms or 'none'})"
        )
    if "clusters" in raw:
        kind = raw["clusters"]
        if kind not in CLUSTER_SCENARIOS:
            raise PackError(
                f"{where}: unknown cluster scenario {kind!r} "
                f"(registered: {', '.join(sorted(CLUSTER_SCENARIOS))})"
            )
        for key in ("rtt_ms", "bandwidth_mbps"):
            if key in raw:
                raise PackError(
                    f"{where}: {key!r} does not apply to a cluster scenario"
                )
        per_cluster = raw.get("per_cluster", 10)
        if not isinstance(per_cluster, int) or per_cluster < 1:
            raise PackError(f"{where}: per_cluster must be a positive integer")
        return CLUSTER_SCENARIOS[kind](per_cluster=per_cluster)
    if "per_cluster" in raw:
        raise PackError(f"{where}: 'per_cluster' needs a 'clusters' scenario")
    if "base" in raw:
        base = raw["base"]
        if base not in SCENARIOS:
            raise PackError(
                f"{where}: unknown base scenario {base!r}"
                f"{_suggest(str(base), list(SCENARIOS))} "
                f"(registered: {', '.join(sorted(SCENARIOS))})"
            )
        params = SCENARIOS[base]
        try:
            if "rtt_ms" in raw:
                params = params.with_rtt(ms(raw["rtt_ms"]))
            if "bandwidth_mbps" in raw:
                params = params.with_bandwidth_bps(mbps(raw["bandwidth_mbps"]))
        except ConfigError as exc:
            raise PackError(f"{where}: {exc}") from None
        return params
    # name form: a fully explicit netem point
    missing = [key for key in ("rtt_ms", "bandwidth_mbps") if key not in raw]
    if missing:
        raise PackError(
            f"{where}: scenario table with 'name' needs explicit "
            f"{' and '.join(missing)}"
        )
    try:
        return NetworkParams(
            str(raw["name"]),
            rtt=ms(raw["rtt_ms"]),
            bandwidth_bps=mbps(raw["bandwidth_mbps"]),
        )
    except ConfigError as exc:
        raise PackError(f"{where}: {exc}") from None


def _model_params(scenario: Scenario) -> Optional[NetworkParams]:
    """Network parameters feeding the horizon model; None for clusters."""
    if isinstance(scenario, str):
        return SCENARIOS[scenario]
    if isinstance(scenario, NetworkParams):
        return scenario
    return None


@dataclass
class CompiledCell:
    """One lowered grid cell: the spec plus its raw pack bindings."""

    index: int
    label: Optional[str]
    #: The merged raw cell mapping (defaults + overrides + set + axis
    #: bindings) -- figure generators use this to key their output series.
    bindings: Dict[str, Any]
    spec: ExperimentSpec


@dataclass
class CompiledGrid:
    """A compiled pack: cells in deterministic expansion order."""

    pack: ScenarioPack
    scale: float
    cells: List[CompiledCell]

    @property
    def specs(self) -> List[ExperimentSpec]:
        return [cell.spec for cell in self.cells]

    def labels(self) -> List[str]:
        """Unique cell labels in first-seen order (figure series)."""
        seen: List[str] = []
        for cell in self.cells:
            if cell.label is not None and cell.label not in seen:
                seen.append(cell.label)
        return seen


def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise PackError(f"{where}: {message}")


def _build_spec(
    merged: Mapping[str, Any],
    where: str,
    scale: float,
    seed: Optional[int],
    observability: Optional[bool],
) -> ExperimentSpec:
    """Validate one merged cell mapping and lower it to a spec."""
    _check_keys(merged, list(CELL_FIELDS), where)

    mode = merged.get("mode")
    _expect(mode is not None, where, "cell does not resolve a 'mode'")
    if mode not in MODES:
        raise PackError(
            f"{where}: unknown mode {mode!r}{_suggest(str(mode), list(MODES))} "
            f"(registered: {', '.join(sorted(MODES))})"
        )

    _expect("scenario" in merged, where, "cell does not resolve a 'scenario'")
    scenario = parse_scenario(merged["scenario"], where)

    n = merged.get("n")
    if isinstance(scenario, ClusterParams):
        if n is None:
            n = scenario.n
        elif n != scenario.n:
            raise PackError(
                f"{where}: n={n} contradicts the cluster scenario "
                f"({scenario.n} processes)"
            )
    _expect(n is not None, where, "cell does not resolve 'n'")
    _expect(isinstance(n, int) and n >= 1, where, f"n must be a positive integer, got {n!r}")

    faults = merged.get("faults", [])
    crashes: List[Tuple[int, float]] = []
    _expect(isinstance(faults, list), where, "'faults' must be a list")
    for entry in faults:
        if isinstance(entry, Mapping):
            _check_keys(entry, ("node", "at"), f"{where} faults")
            _expect("node" in entry and "at" in entry, where,
                    "each fault table needs 'node' and 'at'")
            node, when = entry["node"], entry["at"]
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            node, when = entry
        else:
            raise PackError(
                f"{where}: each fault must be [node, at_seconds] or "
                f"{{node=..., at=...}}, got {entry!r}"
            )
        _expect(isinstance(node, int) and 0 <= node < n, where,
                f"fault node {node!r} outside 0..{n - 1}")
        _expect(isinstance(when, (int, float)) and when >= 0, where,
                f"fault time {when!r} must be a non-negative number")
        crashes.append((node, scale * float(when)))
    if crashes:
        f = max_faults(n)
        if len(crashes) > f:
            raise PackError(
                f"{where}: impossible quorum: {len(crashes)} crash faults "
                f"with n={n} (n >= 3f+1 tolerates at most f={f})"
            )

    block_kb = merged.get("block_kb")
    block_size: Optional[int] = None
    if block_kb is not None:
        _expect(isinstance(block_kb, (int, float)) and block_kb > 0, where,
                f"block_kb must be a positive number, got {block_kb!r}")
        block_size = int(block_kb * KB)

    config_raw = merged.get("config")
    config: Optional[ProtocolConfig] = None
    if config_raw is not None:
        _expect(isinstance(config_raw, Mapping), where, "'config' must be a table")
        _check_keys(config_raw, _CONFIG_KEYS, f"{where} [config]")
        try:
            config = ProtocolConfig(**dict(config_raw))
        except (ConfigError, TypeError) as exc:
            raise PackError(f"{where} [config]: {exc}") from None

    height = merged.get("height", 2)
    _expect(isinstance(height, int) and height >= 1, where,
            f"height must be a positive integer, got {height!r}")

    duration_raw = merged.get("duration")
    _expect(duration_raw is not None, where,
            "cell does not resolve a 'duration' ('adaptive' or seconds)")
    for key in ("instances", "min_duration"):
        if key in merged and duration_raw != "adaptive":
            raise PackError(
                f"{where}: {key!r} only applies to duration = 'adaptive'"
            )
    if duration_raw == "adaptive":
        params = _model_params(scenario)
        if params is None:
            raise PackError(
                f"{where}: duration = 'adaptive' cannot model a cluster "
                "scenario; give a numeric duration"
            )
        model_block = block_size if block_size is not None else (
            config.block_size if config is not None else _DEFAULT_BLOCK
        )
        duration = adaptive_duration(
            mode,
            n,
            params,
            model_block,
            height=height,
            min_duration=float(merged.get("min_duration", 30.0)),
            instances=float(merged.get("instances", 8.0)),
            scale=scale,
        )
    elif isinstance(duration_raw, (int, float)) and duration_raw > 0:
        duration = scale * float(duration_raw)
    else:
        raise PackError(
            f"{where}: duration must be 'adaptive' or a positive number, "
            f"got {duration_raw!r}"
        )

    blocks = merged.get("blocks")
    max_commits: Optional[int] = None
    if blocks is not None:
        _expect(isinstance(blocks, int) and blocks > 0, where,
                f"blocks must be a positive integer, got {blocks!r}")
        # The figures' commit-budget rule, verbatim: scale the budget, but
        # never let a tiny scale starve the cell below a tenth of it.
        max_commits = int(blocks * scale) or max(1, blocks // 10)

    stretch = merged.get("stretch")
    if stretch is not None:
        _expect(isinstance(stretch, (int, float)) and stretch >= 0, where,
                f"stretch must be a non-negative number, got {stretch!r}")
        stretch = float(stretch)

    kwargs: Dict[str, Any] = dict(
        mode=mode,
        scenario=scenario,
        n=n,
        block_size=block_size,
        stretch=stretch,
        height=height,
        duration=duration,
        max_commits=max_commits,
        seed=seed if seed is not None else merged.get("seed", 0),
        config=config,
        crashes=tuple(crashes),
    )
    if "root_fanout" in merged:
        kwargs["root_fanout"] = merged["root_fanout"]
    if "warmup_fraction" in merged:
        kwargs["warmup_fraction"] = float(merged["warmup_fraction"])
    if "lanes" in merged:
        lanes = merged["lanes"]
        _expect(isinstance(lanes, int) and lanes >= 1, where,
                f"lanes must be a positive integer, got {lanes!r}")
        kwargs["uplink_lanes"] = lanes
    if "saturation_threshold" in merged:
        kwargs["saturation_threshold"] = float(merged["saturation_threshold"])
    obs = observability if observability is not None else merged.get(
        "observability", False
    )
    _expect(isinstance(obs, bool), where,
            f"observability must be a boolean, got {obs!r}")
    kwargs["observability"] = obs
    workload_raw = merged.get("workload")
    if workload_raw is not None:
        _expect(isinstance(workload_raw, Mapping), where,
                "'workload' must be a table")
        try:
            kwargs["workload"] = WorkloadSpec.from_mapping(workload_raw)
        except ConfigError as exc:
            raise PackError(f"{where} [workload]: {exc}") from None
    try:
        return ExperimentSpec(**kwargs)
    except ConfigError as exc:  # e.g. NetworkParams re-validation
        raise PackError(f"{where}: {exc}") from None


def _apply_axis_overrides(
    pack: ScenarioPack, axes: Mapping[str, Sequence[Any]]
) -> List[PackGrid]:
    unused = set(axes)
    grids: List[PackGrid] = []
    for grid in pack.grids:
        declared = dict(grid.axes)
        for axis in axes:
            if axis in declared:
                declared[axis] = _validate_axis(
                    pack.name, grid.name, axis, list(axes[axis])
                )
                unused.discard(axis)
        grids.append(
            PackGrid(name=grid.name, set=grid.set, axes=tuple(declared.items()))
        )
    if unused:
        known = pack.axis_names
        missing = sorted(unused)[0]
        raise PackError(
            f"pack {pack.name!r}: axis override {missing!r} matches no "
            f"declared axis{_suggest(missing, known)} "
            f"(declared: {', '.join(known) or 'none'})"
        )
    return grids


def compile_pack(
    pack: ScenarioPack,
    scale: float = 1.0,
    seed: Optional[int] = None,
    observability: Optional[bool] = None,
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> CompiledGrid:
    """Expand a pack's grids into a :class:`CompiledGrid`.

    ``scale`` shrinks horizons/budgets uniformly (the figures' knob);
    ``seed`` replaces every cell's seed; ``observability`` forces the flag
    on or off; ``axes`` substitutes a declared axis's values (same raw
    vocabulary as the pack file); ``overrides`` overlays cell fields on
    top of ``[defaults]`` (but below ``[grid.set]`` and axis bindings).
    """
    if not isinstance(scale, (int, float)) or scale <= 0:
        raise PackError(f"pack {pack.name!r}: scale must be positive, got {scale!r}")
    if overrides:
        _check_keys(overrides, list(CELL_FIELDS), f"pack {pack.name!r} overrides")
    grids = _apply_axis_overrides(pack, axes) if axes else list(pack.grids)
    if not grids:
        grids = [PackGrid(name="default")]

    cells: List[CompiledCell] = []
    for grid in grids:
        base = {**pack.defaults, **(overrides or {}), **grid.set}
        combos: List[Dict[str, Any]] = [{}]
        for axis, values in grid.axes:
            composite = axis not in CELL_FIELDS
            expanded: List[Dict[str, Any]] = []
            for combo in combos:
                for value in values:
                    binding = dict(value) if composite else {axis: value}
                    expanded.append({**combo, **binding})
            combos = expanded
        for combo in combos:
            merged = {**base, **combo}
            index = len(cells)
            where = f"pack {pack.name!r}, grid {grid.name!r}, cell {index}"
            label = merged.pop("label", None)
            if label is not None and not isinstance(label, str):
                raise PackError(f"{where}: label must be a string")
            spec = _build_spec(merged, where, scale, seed, observability)
            cells.append(
                CompiledCell(index=index, label=label, bindings=merged, spec=spec)
            )
    return CompiledGrid(pack=pack, scale=scale, cells=cells)


def validate_pack(pack: ScenarioPack) -> CompiledGrid:
    """Dry-run compile at scale 1.0; raises :class:`PackError` on problems."""
    return compile_pack(pack, scale=1.0)
