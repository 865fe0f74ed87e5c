"""Lower scenario packs to frozen :class:`ExperimentSpec` grids.

The compiler is the proof obligation of the pack subsystem: a pack for an
existing figure must lower to **byte-identical** specs (same
``_encode_scenario`` cache keys) as the pre-pack inline grids, so the
on-disk result cache and the golden RunReports keep hitting. To that end
it reuses the exact same building blocks the inline grids always used --
:func:`repro.runtime.horizon.adaptive_duration` for model-driven
horizons, ``int(blocks * scale) or blocks // 10`` for commit budgets,
``SCENARIOS`` / ``with_rtt`` / ``resilientdb_clusters`` for scenarios --
rather than re-deriving any of them.

Value-level validation lives here (the loader is structural): unknown
modes list the registry, unknown scenarios list the catalog, and fault
schedules that exceed the deployment's resilience are rejected as an
impossible quorum. A fault placed by role (``{leaders = K, at = T}``) is
resolved here, through the deployment's own topology policy, to the
explicit ``(node, time)`` pairs a hand-written list would give. A
``model_ratio`` row's cells get their §4.3 model prediction here too, and a
cell the model cannot describe (a cluster scenario) is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

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
from repro.core.modes import MODES, mode_spec
from repro.errors import ConfigError, TopologyError
from repro.runtime.cluster import build_policy
from repro.runtime.horizon import adaptive_duration, model_for
from repro.runtime.sweep import ExperimentSpec, Scenario
from repro.runtime.workload import WorkloadSpec
from repro.scenarios.loader import (
    CELL_FIELDS,
    SCENARIO_KEYS,
    ExpectRow,
    PackError,
    PackGrid,
    ScenarioPack,
    _check_keys,
    _suggest,
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
    #: The merged raw cell mapping (defaults + set + axis bindings) --
    #: ``[[expect]]`` rows select cells by it, and ``repro scenarios run``
    #: prints each swept axis's value from it.
    bindings: Dict[str, Any]
    spec: ExperimentSpec


@dataclass(frozen=True)
class ResolvedRow:
    """An ``[[expect]]`` row resolved against the grid's cells."""

    row: ExpectRow
    #: One ``(over value, of cell, to cell)`` per point the row reads: the
    #: value is None for a row with no ``over`` axis, the ``to`` cell None
    #: when the row reads no ratio.
    points: Tuple[Tuple[Any, int, Optional[int]], ...]
    #: For a ``model_ratio`` row, each read cell's predicted tx/s by index.
    predicted: Dict[int, float] = field(default_factory=dict)


@dataclass
class CompiledGrid:
    """A compiled pack: cells in deterministic expansion order."""

    pack: ScenarioPack
    scale: float
    cells: List[CompiledCell]
    expect: List[ResolvedRow] = field(default_factory=list)

    @property
    def specs(self) -> List[ExperimentSpec]:
        return [cell.spec for cell in self.cells]


def axis_value(cell: CompiledCell, axis: str) -> Any:
    """A cell's value on a swept axis: its label on a composite axis."""
    return cell.bindings.get(axis) if axis in CELL_FIELDS else cell.label


def _axis_values(pack: ScenarioPack, axis: str) -> List[Any]:
    """An axis's declared values across the grids, labels for a composite axis."""
    values: List[Any] = []
    for grid in pack.grids:
        for name, declared in grid.axes:
            if name != axis:
                continue
            for value in declared:
                if axis not in CELL_FIELDS:
                    value = value.get("label")
                if value not in values:
                    values.append(value)
    return values


def _selects(value: Any, wanted: Any) -> bool:
    """A selector's ``wanted`` picks an axis ``value``: equal, or for a
    table value, a sub-table of it (``{rtt_ms = 50}``)."""
    if isinstance(value, dict) and isinstance(wanted, dict):
        return all(value.get(key) == item for key, item in wanted.items())
    return value == wanted


def _check_axis(pack: ScenarioPack, axis: str, where: str) -> None:
    known = pack.axis_names
    if axis not in known:
        raise PackError(
            f"{where}: unknown axis {axis!r}{_suggest(axis, known)} "
            f"(axes: {', '.join(known)})"
        )


def _check_value(pack: ScenarioPack, axis: str, wanted: Any, where: str) -> None:
    _check_axis(pack, axis, where)
    if not any(_selects(value, wanted) for value in _axis_values(pack, axis)):
        raise PackError(f"{where}: {wanted!r} is not a value of axis {axis!r}")


def _pick(
    pack: ScenarioPack, cells: List[CompiledCell], selector: Mapping[str, Any], where: str
) -> int:
    """The index of the one cell ``selector`` picks; PackError otherwise."""
    hits = [
        cell.index
        for cell in cells
        if all(_selects(axis_value(cell, a), w) for a, w in selector.items())
    ]
    if len(hits) != 1:
        for axis, wanted in selector.items():
            _check_value(pack, axis, wanted, where)
        raise PackError(
            f"{where}: selector {dict(selector)!r} picks {len(hits)} cells, not one"
        )
    return hits[0]


def _resolve_row(
    pack: ScenarioPack, cells: List[CompiledCell], row: ExpectRow
) -> ResolvedRow:
    where = f"pack {pack.name!r}, expect[{row.index}] ({row.kind})"
    for axis in {**row.where, **row.of, **(row.to or {})}:
        _check_axis(pack, axis, where)
    if row.over is None:  # ratio_at_least, between: one point
        values: List[Any] = [None]
    else:
        _check_axis(pack, row.over, where)
        if row.kind == "winner":
            _check_value(pack, row.over, row.args["is"], where)
        if row.kind == "crossover_between":
            values = [row.args["lo"], row.args["hi"]]
        else:
            values = _axis_values(pack, row.over)
    points = []
    for value in values:
        base = dict(row.where) if row.over is None else {**row.where, row.over: value}
        points.append((
            value,
            _pick(pack, cells, {**base, **row.of}, where),
            None if row.to is None else _pick(pack, cells, {**base, **row.to}, where),
        ))
    predicted: Dict[int, float] = {}
    if row.metric == "model_ratio":
        read = {i for _, num, den in points for i in (num, den) if i is not None}
        predicted = {i: _predicted_txs(pack, cells[i], where) for i in sorted(read)}
    return ResolvedRow(row=row, points=tuple(points), predicted=predicted)


def _predicted_txs(pack: ScenarioPack, cell: CompiledCell, where: str) -> float:
    """The §4.3 model's throughput for ``cell``'s deployment, in tx/s."""
    spec = cell.spec
    params = _model_params(spec.scenario)
    if params is None:
        at = " ".join(f"{axis}={axis_value(cell, axis)}" for axis in pack.axis_names)
        raise PackError(
            f"{where}: metric 'model_ratio' needs the §4.3 model, and cell "
            f"{cell.index} ({at}) has a cluster scenario with no NetworkParams"
        )
    config = spec.config or ProtocolConfig()
    if spec.block_size is not None:
        config = config.with_block_size(spec.block_size)
    try:
        model = model_for(spec.mode, spec.n, params, config.block_size, spec.height)
    except (ConfigError, TopologyError) as exc:
        raise PackError(f"{where}: cell {cell.index}: {exc}") from None
    return model.expected_throughput_txs(config, pipelined=mode_spec(spec.mode).pipelined)


def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise PackError(f"{where}: {message}")


def _leaders(
    count: Any,
    mode: str,
    scenario: Scenario,
    n: int,
    height: int,
    root_fanout: Optional[int],
    where: str,
) -> List[int]:
    """The distinct leaders of views 0, 1, 2, ... until ``count`` are
    chosen, from the policy :class:`~repro.runtime.cluster.Cluster` builds
    for this deployment: the processes a ``{leaders = K}`` fault crashes."""
    _expect(isinstance(count, int) and not isinstance(count, bool) and count >= 1,
            where, f"fault 'leaders' must be a positive integer, got {count!r}")
    try:
        policy = build_policy(mode_spec(mode), scenario, n, height, root_fanout)
    except TopologyError as exc:
        raise PackError(f"{where}: {exc}") from None
    chosen: List[int] = []
    # Every process leads one view of a cycle, so the walk ends.
    for view in range(policy.cycle_length):
        if len(chosen) == count:
            break
        leader = policy.leader_of(view)
        if leader not in chosen:
            chosen.append(leader)
    return chosen


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

    height = merged.get("height", 2)
    _expect(isinstance(height, int) and height >= 1, where,
            f"height must be a positive integer, got {height!r}")

    faults = merged.get("faults", [])
    crashes: List[Tuple[int, float]] = []
    _expect(isinstance(faults, list), where, "'faults' must be a list")
    for entry in faults:
        if isinstance(entry, Mapping):
            _check_keys(entry, ("node", "leaders", "at"), f"{where} faults")
            _expect(("node" in entry) != ("leaders" in entry) and "at" in entry,
                    where, "each fault table needs 'at' and one of 'node' or 'leaders'")
            when = entry["at"]
            if "node" in entry:
                nodes = [entry["node"]]
            else:
                nodes = _leaders(entry["leaders"], mode, scenario, n, height,
                                 merged.get("root_fanout"), where)
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            node, when = entry
            nodes = [node]
        else:
            raise PackError(
                f"{where}: each fault must be [node, at_seconds], "
                f"{{node=..., at=...}} or {{leaders=..., at=...}}, got {entry!r}"
            )
        for node in nodes:
            _expect(isinstance(node, int) and 0 <= node < n, where,
                    f"fault node {node!r} outside 0..{n - 1}")
        _expect(isinstance(when, (int, float)) and when >= 0, where,
                f"fault time {when!r} must be a non-negative number")
        crashes.extend((node, scale * float(when)) for node in nodes)
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
        if block_size is not None:  # block_kb against the config's tx_size
            (config or ProtocolConfig()).with_block_size(block_size)
        return ExperimentSpec(**kwargs)
    except ConfigError as exc:  # e.g. NetworkParams re-validation
        raise PackError(f"{where}: {exc}") from None


def compile_pack(
    pack: ScenarioPack,
    scale: float = 1.0,
    seed: Optional[int] = None,
    observability: Optional[bool] = None,
) -> CompiledGrid:
    """Expand a pack's grids into a :class:`CompiledGrid`.

    ``scale`` shrinks horizons/budgets uniformly (the figures' knob);
    ``seed`` replaces every cell's seed; ``observability`` forces the flag
    on or off. Each ``[[expect]]`` row is resolved to its cells.
    """
    if not isinstance(scale, (int, float)) or scale <= 0:
        raise PackError(f"pack {pack.name!r}: scale must be positive, got {scale!r}")
    grids = list(pack.grids) or [PackGrid(name="default")]

    cells: List[CompiledCell] = []
    for grid in grids:
        base = {**pack.defaults, **grid.set}
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
    expect = [_resolve_row(pack, cells, row) for row in pack.expect]
    return CompiledGrid(pack=pack, scale=scale, cells=cells, expect=expect)


def validate_pack(pack: ScenarioPack) -> CompiledGrid:
    """Dry-run compile at scale 1.0; raises :class:`PackError` on problems."""
    return compile_pack(pack, scale=1.0)
