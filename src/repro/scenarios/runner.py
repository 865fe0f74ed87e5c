"""One-call compile-and-run for scenario packs."""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.runtime.experiment import ExperimentResult
from repro.runtime.sweep import SweepRunner
from repro.scenarios.catalog import load_pack
from repro.scenarios.compiler import CompiledGrid, compile_pack
from repro.scenarios.loader import ScenarioPack


def run_pack(
    pack: Union[str, ScenarioPack],
    scale: float = 1.0,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: bool = False,
    observability: Optional[bool] = None,
    runner: Optional[SweepRunner] = None,
) -> Tuple[CompiledGrid, List[ExperimentResult]]:
    """Compile a pack (by name or value) and run it through the sweep
    engine; results align index-for-index with ``grid.cells``."""
    if isinstance(pack, str):
        pack = load_pack(pack)
    grid = compile_pack(pack, scale=scale, seed=seed, observability=observability)
    engine = runner if runner is not None else SweepRunner(jobs=jobs, cache=cache)
    return grid, engine.run(grid.specs)
