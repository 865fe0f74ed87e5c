#!/usr/bin/env python3
"""Rehearse the driver's acceptance check: run every workload once per seed
and print, for each end-to-end metric, the spread of its values (distance
between the first and third quartile over the median) against its bound.

    python3 benchmarks/ledger/spread.py [--seeds 10] [--first-seed 1]
        [--workload W ...] [--out FILE]

Exits non-zero when a spread other than ``setup_s``'s exceeds its bound,
which is when the driver would refuse the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List

from run import REPO, load_manifest, relative_iqr


def main() -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", help="write every run's metrics here")
    args = parser.parse_args()
    names = args.workload or [entry["name"] for entry in manifest["workloads"]]
    command = manifest["command"] + ["--seconds", str(manifest["run_seconds"]), "--trace", "0"]
    runs: Dict[str, Dict[str, List[float]]] = {}
    refused = False
    for name in names:
        values: Dict[str, List[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                command + ["--workload", name, "--seed", str(seed)],
                cwd=REPO, capture_output=True, text=True, timeout=180,
            )
            if done.returncode:
                sys.stderr.write(done.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}")
                refused = True
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        runs[name] = values
        print(f"== {name}  ({args.seeds} seeds from {args.first_seed})")
        for entry in manifest["end_to_end"]:
            sample = values[entry["name"]]
            spread = relative_iqr(sample)
            verdict = "ok"
            if spread > entry["bound"]:
                verdict = "over bound" if entry["name"] != "setup_s" else "over bound (exempt)"
                refused = refused or entry["name"] != "setup_s"
            elif spread > entry["bound"] / 3.0:
                verdict = "over a third of the bound"
            print(f"   {entry['name']:<26} median={statistics.median(sample):<14.6g} "
                  f"spread={spread:8.4%}  bound={entry['bound']:.0%}  {verdict}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
