"""Pipelining schedule visualisation (the paper's Figures 3-4).

Figures 3 and 4 illustrate how HotStuff piggybacks one new instance per
round while Kauri's stretch starts several instances during a single
round. This module draws that picture from an observed run's RunReport:
each decided row of its ``rounds`` section is one consensus instance at
the root, with the §4.3 split the root's
:class:`~repro.obs.recorder.PhaseRecorder` measured -- the sending time
``t_s`` (``disseminate``, the uplink backlog right after the proposal
fan-out) and the remaining time until the instance ended. The overlap of
those rows, as an ASCII Gantt chart, is a measured Figure 3/4 analogue
rather than a schematic one.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Leading decided rows a chart skips: the pipeline is still filling.
WARMUP_ROWS = 4


def pipeline_rounds(
    mode: str, duration: float = 60.0, max_commits: int = 40
) -> List[Dict[str, Any]]:
    """The decided ``rounds`` rows, ordered by height, of one observed run
    of ``mode`` at N=31 on the regional scenario."""
    from repro.obs.report import build_report
    from repro.runtime.cluster import Cluster

    cluster = Cluster(n=31, mode=mode, scenario="regional", observability=True)
    cluster.start()
    cluster.run(duration=duration, max_commits=max_commits)
    return [row for row in build_report(cluster)["rounds"] if row["decided"]]


def render_gantt(
    rows: List[Dict[str, Any]],
    width: int = 72,
    max_rows: int = 12,
) -> str:
    """ASCII Gantt: one row per instance, ``#`` = sending time ``t_s``,
    ``.`` = remaining time until the instance ended. Overlapping rows
    *are* the pipeline (Figures 3-4)."""
    if not rows:
        return "(no decided instances in the report window)"
    rows = rows[:max_rows]
    lo = min(row["start"] for row in rows)
    hi = max(row["end"] for row in rows)
    if hi <= lo:
        hi = lo + 1e-9
    scale = width / (hi - lo)

    def col(t: float) -> int:
        return max(0, min(width - 1, int((t - lo) * scale)))

    lines = [f"t = {lo:.2f}s .. {hi:.2f}s  (# sending t_s, . remaining)"]
    for row in rows:
        sent = col(row["start"] + row["disseminate"])
        chart = [" "] * width
        for c in range(col(row["start"]), sent + 1):
            chart[c] = "#"
        for c in range(sent + 1, col(row["end"]) + 1):
            chart[c] = "."
        lines.append(f"h={row['height']:4d} |{''.join(chart)}|")
    return "\n".join(lines)


def max_concurrency(rows: List[Dict[str, Any]]) -> int:
    """Peak number of instances simultaneously in flight -- the measured
    pipeline depth (HotStuff: ~4; Kauri: ~4·(1+stretch))."""
    boundaries = []
    for row in rows:
        boundaries.append((row["start"], 1))
        boundaries.append((row["end"], -1))
    boundaries.sort()
    live = peak = 0
    for _, delta in boundaries:
        live += delta
        peak = max(peak, live)
    return peak


def pipeline_chart(mode: str, rows: List[Dict[str, Any]]) -> str:
    """One mode's peak in-flight count and Gantt chart past the warm-up."""
    return (
        f"--- {mode} (peak in-flight: {max_concurrency(rows)}) ---\n"
        + render_gantt(rows[WARMUP_ROWS:], max_rows=8)
    )
