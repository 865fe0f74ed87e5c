"""Shared benchmark configuration.

Environment knobs:

- ``REPRO_BENCH_SCALE`` (float, default 1.0): uniformly shrinks simulation
  horizons and commit budgets. 0.2 gives a quick smoke pass; 1.0 runs the
  evaluation at meaningful statistical depth.
- ``REPRO_BENCH_JOBS`` (int, default 1): worker processes for the sweep
  engine; every grid-shaped bench fans its independent cells out over this
  many processes (results are identical for any value -- each cell is a
  deterministic function of its spec).
- ``REPRO_BENCH_CACHE`` (set to 1): reuse completed cells from the on-disk
  result cache under ``benchmarks/results/.cache/``.

Every bench prints the paper-style table it regenerates and also writes it
to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference the
exact rows. Figures 5-12 are not benches: their packs' ``[[expect]]`` rows
hold the paper's claims, checked by ``repro scenarios run figN``.
"""

import os
import pathlib

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
JOBS = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1"))
CACHE = os.environ.get("REPRO_BENCH_CACHE", "") not in ("", "0")

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def save_table():
    def _save(name: str, text: str) -> str:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print("\n" + text)
        return str(path)

    return _save


def run_grid(specs):
    """Run a list of ExperimentSpecs through the shared sweep engine.

    Honours ``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_CACHE``; results come back
    in spec order, so callers can ``zip`` them with their cell keys.
    """
    from repro.runtime.sweep import SweepRunner

    return SweepRunner(jobs=JOBS, cache=CACHE).run(specs)


def run_once(benchmark, fn):
    """Run a deterministic experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
