"""Scenario-pack file format: parsing and structural validation.

Packs are TOML on Python >= 3.11 (stdlib :mod:`tomllib`); JSON packs carry
the identical structure for 3.9/3.10 environments without a TOML parser.
The format::

    [pack]
    name = "fig6"              # must match the file stem
    title = "Figure 6: ..."
    description = "..."
    schema = 1

    [defaults]                 # cell fields applied to every cell
    mode = "kauri"
    scenario = "global"
    n = 100
    blocks = 150               # commit budget at scale = 1.0
    duration = "adaptive"      # model-driven horizon (or a number)

    [[grid]]                   # one cross-product; a pack may have several
    [grid.axes]                # declaration order = nesting (first outermost)
    scenario = ["national", "regional", "global"]
    mode = ["kauri", "hotstuff-secp"]

    [[expect]]                 # optional: one checked claim per row
    kind = "winner"            # or ratio_at_least / monotone_in / crossover_between / between
    over = "mode"
    is = "kauri"
    where = { scenario = "global", n = 100 }

Axis values are either scalars binding the axis's own field, or tables
binding several fields at once (a *composite* axis, e.g. a ``system`` axis
binding ``label``/``mode``/``height`` together).

A cell's ``faults`` list crashes processes. An entry names a node
(``[node, at]`` or ``{node = ..., at = ...}``) or a role: ``{leaders = K,
at = T}`` crashes, at T, the distinct leaders of views 0, 1, 2, ... until
K processes are chosen -- the leaders a run of that cell would walk
through on successive view changes. Figure 12's four placements (one
faulty leader, three, f leaders, and f faults poisoning every bin and then
the first star leaders) are the leaders of the first K views, K = 1, 3, f
and f: each bin's tree root is the leader of its view.

An ``[[expect]]`` row states a claim about the results, and ``repro
scenarios run`` prints its verdict after the results table. A row names
its cells by *selectors*: tables mapping axis names to axis values, where
a composite axis is selected by its label and a table-valued axis (a
scenario table) by a sub-table (``{ rtt_ms = 50 }``). ``where`` holds the
bindings a row's cells share; ``of`` and ``to`` add to it, and every
selector must pick exactly one cell. A row's value at a point is the
``metric`` (default ``throughput_txs``) of its ``of`` cell, divided by that
of its ``to`` cell when the row has one. ``metric = "model_ratio"`` reads a
cell's ``throughput_txs`` over the §4.3 model's prediction for that cell,
so it needs a cell whose scenario the model can describe (not a cluster
table). The kinds:

- ``winner``: over every value of axis ``over``, the highest value is
  the one at ``is``;
- ``ratio_at_least``: ``of`` / ``to`` is at least ``at_least``;
- ``monotone_in``: the value is strictly ``direction`` (``"increasing"``
  or ``"decreasing"``) along axis ``over``;
- ``crossover_between``: ``of`` / ``to`` is below 1 at ``over = lo`` and
  above 1 at ``over = hi``, and grows by at least ``at_least`` (default 1)
  between the two;
- ``between``: the ``of`` cell's value lies in the numbers ``[lo, hi]``.

A row may carry ``known_deviation = "reason"``: it is still measured, but
if it fails its verdict is ``known_deviation`` with that reason, and the
run does not fail.

Validation here is structural (sections, keys, shapes) with precise
messages including did-you-mean suggestions; value-level validation (modes,
scenarios, quorums) happens in :mod:`repro.scenarios.compiler`, which the
``validate`` entry points invoke via a dry-run compile.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.9/3.10 fallback
    tomllib = None  # type: ignore[assignment]

#: The pack-format version this loader understands.
PACK_SCHEMA = 1

#: Every key a cell may carry (in ``[defaults]``, ``[grid.set]``, or an
#: axis binding), with a one-line meaning for error messages and docs.
CELL_FIELDS: Dict[str, str] = {
    "label": "presentation label for the cell (figure series name)",
    "mode": "protocol mode, one of the registered MODES",
    "scenario": "deployment scenario: name, netem table, or cluster table",
    "n": "system size (derived from the cluster table when omitted)",
    "block_kb": "block size in KB (the client-load knob)",
    "stretch": "Kauri pipelining stretch; omit to follow the model",
    "height": "tree height",
    "root_fanout": "root fanout override",
    "duration": "'adaptive' (model-driven) or simulated seconds at scale 1.0",
    "instances": "adaptive horizon: instances per window (default 8.0)",
    "min_duration": "adaptive horizon: floor in seconds (default 30.0)",
    "blocks": "commit budget at scale 1.0 (lowered to max_commits)",
    "warmup_fraction": "measurement warm-up fraction",
    "seed": "simulation seed",
    "lanes": "uplink lanes per process",
    "observability": "attach a full RunReport to every result",
    "saturation_threshold": "CPU-saturation flag threshold",
    "faults": "crash schedule: [node, at_seconds] pairs or {leaders=K, at=...} tables",
    "config": "ProtocolConfig overrides (base_timeout, tx_size, ...)",
    "workload": "workload-engine table (classes, capacity_txs, policy, ...)",
}

#: ``[[expect]]`` row kinds: their required keys, then their optional ones
#: (besides ``kind``, ``metric``, ``where`` and ``known_deviation``).
EXPECT_KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "winner": (("over", "is"), ()),
    "ratio_at_least": (("of", "to", "at_least"), ()),
    "monotone_in": (("over", "direction"), ("of", "to")),
    "crossover_between": (("over", "lo", "hi", "of", "to"), ("at_least",)),
    "between": (("of", "lo", "hi"), ()),
}

#: The result fields a row may read; ``latency.p50`` reads ``latency["p50"]``,
#: and ``model_ratio`` is ``throughput_txs`` over the §4.3 model's prediction.
EXPECT_METRICS = ("throughput_txs", "latency.p50", "max_view", "model_ratio")

#: Keys allowed inside a ``scenario`` table.
SCENARIO_KEYS = ("name", "base", "clusters", "per_cluster", "rtt_ms", "bandwidth_mbps")


class PackError(ConfigError):
    """A scenario pack failed to parse, validate, or compile."""


def _suggest(key: str, known: Sequence[str]) -> str:
    matches = difflib.get_close_matches(key, list(known), n=1)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def _check_keys(
    mapping: Mapping[str, Any], allowed: Sequence[str], where: str
) -> None:
    for key in mapping:
        if key not in allowed:
            raise PackError(
                f"{where}: unknown key {key!r}{_suggest(key, allowed)} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )


@dataclass
class PackGrid:
    """One cross-product inside a pack."""

    name: str
    set: Dict[str, Any] = field(default_factory=dict)
    #: Ordered (axis-name, values) pairs; first axis varies slowest.
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()


@dataclass
class ExpectRow:
    """One parsed ``[[expect]]`` row (see the module docstring)."""

    index: int
    kind: str
    metric: str
    where: Dict[str, Any]
    of: Dict[str, Any]
    to: Optional[Dict[str, Any]]
    over: Optional[str]
    #: The kind's own keys: ``is``, ``at_least``, ``direction``, ``lo``, ``hi``.
    args: Dict[str, Any]
    known_deviation: Optional[str]


@dataclass
class ScenarioPack:
    """A parsed, structurally valid scenario pack."""

    name: str
    title: str
    description: str
    schema: int
    defaults: Dict[str, Any]
    grids: Tuple[PackGrid, ...]
    source: Optional[Path] = None
    expect: Tuple[ExpectRow, ...] = ()

    @property
    def axis_names(self) -> List[str]:
        seen: List[str] = []
        for grid in self.grids:
            for axis, _ in grid.axes:
                if axis not in seen:
                    seen.append(axis)
        return seen


def _validate_axis(pack: str, grid: str, axis: str, values: Any) -> Tuple[Any, ...]:
    """An axis named after a cell field binds that field (whatever the value
    shape -- scenario tables included); any other axis name is *composite*
    and its values must be tables binding several cell fields at once."""
    where = f"pack {pack!r}, grid {grid!r}, axis {axis!r}"
    if not isinstance(values, list) or not values:
        raise PackError(f"{where}: axis values must be a non-empty list")
    if axis in CELL_FIELDS:
        return tuple(values)
    for entry in values:
        if not isinstance(entry, dict):
            raise PackError(
                f"{where}: not a cell field{_suggest(axis, list(CELL_FIELDS))}, "
                "so it must be a composite axis -- a list of tables binding "
                "cell fields (e.g. {label=..., mode=..., height=...})"
            )
        _check_keys(entry, list(CELL_FIELDS), where)
    return tuple(values)


def _parse_row(pack: str, index: int, raw: Any) -> ExpectRow:
    """Structurally validate one ``[[expect]]`` row; the compiler checks
    its axes and values against the grid."""
    where = f"pack {pack!r}, expect[{index}]"
    if not isinstance(raw, Mapping):
        raise PackError(f"{where}: each [[expect]] entry must be a table")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in EXPECT_KINDS:
        raise PackError(
            f"{where}: unknown kind {kind!r}{_suggest(str(kind), list(EXPECT_KINDS))} "
            f"(kinds: {', '.join(EXPECT_KINDS)})"
        )
    where = f"{where} ({kind})"
    required, optional = EXPECT_KINDS[kind]
    _check_keys(raw, ("kind", "metric", "where", "known_deviation", *required, *optional), where)
    missing = [key for key in required if key not in raw]
    if missing:
        raise PackError(f"{where}: missing {', '.join(map(repr, missing))}")
    metric = raw.get("metric", "throughput_txs")
    if metric not in EXPECT_METRICS:
        raise PackError(
            f"{where}: unknown metric {metric!r}{_suggest(str(metric), list(EXPECT_METRICS))} "
            f"(metrics: {', '.join(EXPECT_METRICS)})"
        )
    for key in ("where", "of", "to"):
        if key in raw and not isinstance(raw[key], Mapping):
            raise PackError(f"{where}: {key!r} must be a table of axis = value")
    if "over" in raw and not isinstance(raw["over"], str):
        raise PackError(f"{where}: 'over' must name an axis")
    if "at_least" in raw and not (
        isinstance(raw["at_least"], (int, float)) and raw["at_least"] > 0
    ):
        raise PackError(f"{where}: 'at_least' must be a positive number")
    if kind == "between" and not all(
        isinstance(raw[key], (int, float)) and not isinstance(raw[key], bool)
        for key in ("lo", "hi")
    ):
        raise PackError(f"{where}: 'lo' and 'hi' must be numbers")
    if kind == "between" and raw["lo"] > raw["hi"]:
        raise PackError(f"{where}: 'lo' {raw['lo']!r} exceeds 'hi' {raw['hi']!r}")
    if raw.get("direction", "increasing") not in ("increasing", "decreasing"):
        raise PackError(f"{where}: 'direction' must be 'increasing' or 'decreasing'")
    reason = raw.get("known_deviation")
    if reason is not None and not (isinstance(reason, str) and reason):
        raise PackError(f"{where}: 'known_deviation' must be a non-empty reason")
    return ExpectRow(
        index=index,
        kind=kind,
        metric=metric,
        where=dict(raw.get("where", {})),
        of=dict(raw.get("of", {})),
        to=dict(raw["to"]) if "to" in raw else None,
        over=raw.get("over"),
        args={key: raw[key] for key in ("is", "at_least", "direction", "lo", "hi") if key in raw},
        known_deviation=reason,
    )


def parse_pack(
    data: Mapping[str, Any], source: Optional[Path] = None
) -> ScenarioPack:
    """Build and structurally validate a pack from a parsed mapping."""
    origin = str(source) if source is not None else "<pack>"
    if not isinstance(data, Mapping):
        raise PackError(f"{origin}: top level must be a table/object")
    _check_keys(data, ("pack", "defaults", "grid", "expect"), origin)
    header = data.get("pack")
    if not isinstance(header, Mapping):
        raise PackError(f"{origin}: missing [pack] header table")
    _check_keys(header, ("name", "title", "description", "schema"), f"{origin} [pack]")
    name = header.get("name")
    if not isinstance(name, str) or not name:
        raise PackError(f"{origin} [pack]: 'name' must be a non-empty string")
    schema = header.get("schema", PACK_SCHEMA)
    if schema != PACK_SCHEMA:
        raise PackError(
            f"pack {name!r}: unsupported schema version {schema!r} "
            f"(this loader reads schema {PACK_SCHEMA})"
        )

    defaults = dict(data.get("defaults", {}))
    _check_keys(defaults, list(CELL_FIELDS), f"pack {name!r} [defaults]")

    raw_grids = data.get("grid", [])
    if isinstance(raw_grids, Mapping):  # a single [grid] table
        raw_grids = [raw_grids]
    if not isinstance(raw_grids, list):
        raise PackError(f"pack {name!r}: [[grid]] must be an array of tables")
    grids: List[PackGrid] = []
    for index, raw in enumerate(raw_grids):
        gname = raw.get("name", f"grid{index}") if isinstance(raw, Mapping) else ""
        where = f"pack {name!r}, grid {gname!r}"
        if not isinstance(raw, Mapping):
            raise PackError(f"{where}: each [[grid]] entry must be a table")
        _check_keys(raw, ("name", "set", "axes"), where)
        fixed = dict(raw.get("set", {}))
        _check_keys(fixed, list(CELL_FIELDS), f"{where} [grid.set]")
        axes_raw = raw.get("axes", {})
        if not isinstance(axes_raw, Mapping):
            raise PackError(f"{where}: [grid.axes] must be a table")
        axes = tuple(
            (axis, _validate_axis(name, gname, axis, values))
            for axis, values in axes_raw.items()
        )
        grids.append(PackGrid(name=gname, set=fixed, axes=axes))

    raw_rows = data.get("expect", [])
    if not isinstance(raw_rows, list):
        raise PackError(f"pack {name!r}: [[expect]] must be an array of tables")

    return ScenarioPack(
        name=name,
        title=str(header.get("title", name)),
        description=str(header.get("description", "")),
        schema=int(schema),
        defaults=defaults,
        grids=tuple(grids),
        source=source,
        expect=tuple(_parse_row(name, i, raw) for i, raw in enumerate(raw_rows)),
    )


def parse_pack_text(
    text: str, fmt: str = "toml", source: Optional[Path] = None
) -> ScenarioPack:
    """Parse pack ``text`` in ``fmt`` (``"toml"`` or ``"json"``)."""
    origin = str(source) if source is not None else "<pack>"
    if fmt == "toml":
        if tomllib is None:  # pragma: no cover - 3.9/3.10 only
            raise PackError(
                f"{origin}: TOML packs need Python >= 3.11 (stdlib tomllib); "
                "author the pack as JSON with the same structure instead"
            )
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise PackError(f"{origin}: invalid TOML: {exc}") from None
    elif fmt == "json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise PackError(f"{origin}: invalid JSON: {exc}") from None
    else:
        raise PackError(f"unknown pack format {fmt!r}; expected 'toml' or 'json'")
    return parse_pack(data, source=source)


def load_pack_file(path: Union[str, Path]) -> ScenarioPack:
    """Load one ``.toml`` / ``.json`` pack file; the [pack] name must match
    the file stem (so the catalog's names and the files stay in sync)."""
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    try:
        text = path.read_text()
    except OSError as exc:
        raise PackError(f"cannot read pack file {path}: {exc}") from None
    pack = parse_pack_text(text, fmt=fmt, source=path)
    if pack.name != path.stem:
        raise PackError(
            f"pack file {path.name}: [pack] name {pack.name!r} does not "
            f"match the file stem {path.stem!r}"
        )
    return pack
