#!/usr/bin/env python3
"""Compare two ledger result files, A (base) against B.

    python3 benchmarks/ledger/compare.py A.json B.json

One row per workload x end-to-end metric: both values, the ratio B/A, and a
verdict against the metric's bound in ``BENCHMARK.json``:

- ``worse``      B is worse than A by more than the bound;
- ``better``     B is better than A by more than the bound;
- ``same``       the two are within the bound of each other;
- ``unresolved`` A's own passes spread wider than the bound, so this pair
                 of files cannot tell (run again, or use ten alternated
                 pairs as the README describes).

Each workload also gets a line saying whether the deterministic content
(fingerprint and ``sim_digest``) is identical, which is what a pure
speed-up must leave it. Exits non-zero on any ``worse``.

Both files must come from the same machine: host metrics are never compared
across machines.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from run import load_manifest, relative_iqr

#: End-to-end metrics measured on the host clock, and where their own
#: run-to-run spread is recorded in a workload's document.
HOST_METRICS = ("host_ms_per_block", "host_us_per_offered_tx")


def own_spread(doc: Dict[str, Any], metric: str) -> float:
    """How far one document's own passes disagree about ``metric``: the two
    half-sample estimates of the quiet pass for host metrics, the relative
    interquartile range of the launches for ``setup_s``, and 0 for
    simulated metrics, which repeat exactly."""
    wall = doc["wall"]
    if metric in HOST_METRICS:
        a, b = wall["pass_wall_s"]["quiet_halves"]
        return abs(a - b) / min(a, b)
    if metric == "setup_s":
        return relative_iqr(wall["setup_s_samples"])
    return 0.0


def verdict(base: float, other: float, better: str, bound: float, spread: float) -> str:
    if spread > bound:
        return "unresolved"
    change = (other - base) / base
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: Dict[str, Any], b: Dict[str, Any], manifest: Dict[str, Any]
            ) -> Tuple[List[Tuple], List[str]]:
    """Rows ``(workload, metric, unit, a, b, ratio, verdict)`` and one
    determinism note per workload present in both files."""
    rows, notes = [], []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        doc_a, doc_b = a["workloads"][name], b["workloads"][name]
        det_a, det_b = doc_a["deterministic"], doc_b["deterministic"]
        identical = (
            det_a["fingerprint"] == det_b["fingerprint"]
            and det_a["sim_digest"] == det_b["sim_digest"]
        )
        notes.append(
            f"{name}: simulated run {'identical' if identical else 'DIFFERENT'} "
            f"(seed {doc_a['seed']} vs {doc_b['seed']})"
        )
        for entry in manifest["end_to_end"]:
            metric = entry["name"]
            if metric not in doc_a["metrics"] or metric not in doc_b["metrics"]:
                continue
            va = doc_a["metrics"][metric]["value"]
            vb = doc_b["metrics"][metric]["value"]
            rows.append((
                name, metric, entry["unit"], va, vb, vb / va,
                verdict(va, vb, entry["better"], entry["bound"],
                        own_spread(doc_a, metric)),
            ))
    return rows, notes


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    rows, notes = compare(a, b, load_manifest())
    if a["machine"].get("platform") != b["machine"].get("platform"):
        print("warning: the two files name different platforms; host metrics "
              "are only comparable on one machine")
    print(f"base A = {argv[0]}   B = {argv[1]}   ratio = B / A")
    print(f"{'workload':<20} {'metric':<24} {'A':>14} {'B':>14} {'B/A':>8}  verdict")
    for name, metric, unit, va, vb, ratio, word in rows:
        print(f"{name:<20} {metric:<24} {va:>14.6g} {vb:>14.6g} {ratio:>8.4f}  "
              f"{word}  [{unit}]")
    for note in notes:
        print(note)
    worse = sum(1 for row in rows if row[-1] == "worse")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
