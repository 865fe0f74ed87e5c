"""Verdicts for a pack's ``[[expect]]`` rows.

The compiler resolves each row to the cells it reads; :func:`check_rows`
reads those cells' unrounded :class:`~repro.runtime.experiment.ExperimentResult`
fields -- the numbers :func:`repro.obs.report.report_sections` computed --
and returns one :class:`Verdict` per row; ``model_ratio`` divides a cell's
throughput by the prediction the compiler attached. A cell whose metric reads 0
committed nothing in its window and holds no measurement: a row that needs
it fails and names it (a ``winner`` row skips it unless it is the expected
winner). ``max_view`` counts view changes, so its 0 is a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.experiment import ExperimentResult
from repro.scenarios.compiler import CompiledGrid, ResolvedRow, _selects, axis_value
from repro.scenarios.loader import ExpectRow

#: A row's value at one point: the ``of`` cell's metric, over the ``to``
#: cell's when the point has one.
PointValue = Callable[[int, Optional[int]], float]


@dataclass(frozen=True)
class Verdict:
    """One row's outcome: ``pass``, ``FAIL`` or ``known_deviation``."""

    row: str
    status: str
    claim: str
    measured: str
    bound: str
    reason: Optional[str] = None

    def line(self) -> str:
        text = f"{self.row} {self.status}: {self.claim}: measured {self.measured}; bound {self.bound}"
        return text if self.reason is None else f"{text} -- {self.reason}"


class _Empty(Exception):
    """A row read a cell whose metric reads 0; the argument is its index."""


def _show(value: Any) -> str:
    if isinstance(value, Mapping):
        return "{" + ", ".join(f"{key}={_show(item)}" for key, item in value.items()) + "}"
    return str(value)


def _selector(selector: Mapping[str, Any]) -> str:
    return " ".join(f"{axis}={_show(value)}" for axis, value in selector.items())


def _num(value: float) -> str:
    return f"{value:.4g}"


def _winner(row: ExpectRow, points, value: PointValue) -> Tuple[bool, str]:
    wanted = row.args["is"]
    scored = []
    for at, num, _ in points:
        try:
            scored.append((value(num, None), at))
        except _Empty:
            if _selects(at, wanted):
                raise
    ranked = sorted(scored, key=lambda item: item[0], reverse=True)
    best, best_at = ranked[0]
    measured = f"{row.over}={_show(best_at)} at {_num(best)}"
    holds = _selects(best_at, wanted)
    if len(ranked) > 1:
        runner_up, runner_up_at = ranked[1]
        measured += f", next {row.over}={_show(runner_up_at)} at {_num(runner_up)}"
        holds = holds and runner_up != best
    return holds, measured


def _ratio_at_least(row: ExpectRow, points, value: PointValue) -> Tuple[bool, str]:
    ((_, num, den),) = points
    ratio = value(num, den)
    return ratio >= row.args["at_least"], _num(ratio)


def _monotone_in(row: ExpectRow, points, value: PointValue) -> Tuple[bool, str]:
    series = [value(num, den) for _, num, den in points]
    steps = list(zip(series, series[1:]))
    if row.args["direction"] == "increasing":
        holds = all(b > a for a, b in steps)
    else:
        holds = all(b < a for a, b in steps)
    measured = ", ".join(
        f"{_show(at)}: {_num(v)}" for (at, _, _), v in zip(points, series)
    )
    return holds, measured


def _crossover_between(row: ExpectRow, points, value: PointValue) -> Tuple[bool, str]:
    (lo_at, lo_num, lo_den), (hi_at, hi_num, hi_den) = points
    lo, hi = value(lo_num, lo_den), value(hi_num, hi_den)
    measured = (
        f"{_num(lo)} at {_show(lo_at)}, {_num(hi)} at {_show(hi_at)} (x{_num(hi / lo)})"
    )
    return lo < 1 < hi and hi / lo >= row.args.get("at_least", 1.0), measured


def _between(row: ExpectRow, points, value: PointValue) -> Tuple[bool, str]:
    ((_, num, _),) = points
    measured = value(num, None)
    return row.args["lo"] <= measured <= row.args["hi"], _num(measured)


_KINDS = {
    "winner": _winner,
    "ratio_at_least": _ratio_at_least,
    "monotone_in": _monotone_in,
    "crossover_between": _crossover_between,
    "between": _between,
}


def _bound(row: ExpectRow) -> str:
    if row.kind == "winner":
        return f"{row.over}={_show(row.args['is'])}"
    if row.kind == "ratio_at_least":
        return f">= {_num(row.args['at_least'])}"
    if row.kind == "monotone_in":
        return f"strictly {row.args['direction']}"
    if row.kind == "between":
        return f"in [{_num(row.args['lo'])}, {_num(row.args['hi'])}]"
    return f"< 1 then > 1, x >= {_num(row.args.get('at_least', 1.0))}"


def _claim(row: ExpectRow) -> str:
    text = f"{row.kind} {row.metric}"
    if row.of:
        text += f" {_selector(row.of)}"
    if row.to is not None:
        text += f" / {_selector(row.to)}"
    if row.over is not None:
        text += f" over {row.over}"
    if row.where:
        text += f" at {_selector(row.where)}"
    return text


def _verdict(
    grid: CompiledGrid, results: Sequence[ExperimentResult], resolved: ResolvedRow
) -> Verdict:
    row = resolved.row
    field, _, key = row.metric.partition(".")

    def read(index: int) -> float:
        if row.metric == "model_ratio":
            measured = results[index].throughput_txs / resolved.predicted[index]
        else:
            measured = getattr(results[index], field)
            measured = measured[key] if key else measured
        if not measured and field != "max_view":
            raise _Empty(index)
        return measured

    def value(num: int, den: Optional[int]) -> float:
        return read(num) if den is None else read(num) / read(den)

    name, claim, bound = f"{grid.pack.name} expect[{row.index}]", _claim(row), _bound(row)
    try:
        holds, measured = _KINDS[row.kind](row, resolved.points, value)
    except _Empty as empty:
        cell = grid.cells[empty.args[0]]
        where = _selector({axis: axis_value(cell, axis) for axis in grid.pack.axis_names})
        return Verdict(name, "FAIL", claim, f"nothing, empty cell {where} reads 0", bound)
    if holds:
        return Verdict(name, "pass", claim, measured, bound)
    if row.known_deviation is None:
        return Verdict(name, "FAIL", claim, measured, bound)
    return Verdict(name, "known_deviation", claim, measured, bound, row.known_deviation)


def check_rows(
    grid: CompiledGrid, results: Sequence[ExperimentResult]
) -> List[Verdict]:
    """One verdict per ``[[expect]]`` row, in row order; ``results`` align
    index-for-index with ``grid.cells``."""
    return [_verdict(grid, results, resolved) for resolved in grid.expect]
