"""Declarative scenario packs: experiments as data files, not code.

A *scenario pack* is a small TOML (or JSON) file declaring the axes of an
experiment grid -- topology, network emulation, protocol mode, fault
schedule, client load -- plus fixed defaults. The loader validates packs
with precise error messages, and the compiler lowers a pack onto the
existing frozen :class:`~repro.runtime.sweep.ExperimentSpec` grids consumed
by :class:`~repro.runtime.sweep.SweepRunner`, so every pack cell hits the
same on-disk result cache as a hand-built spec.

Layers:

- :mod:`repro.scenarios.loader`   -- parse + structural validation;
- :mod:`repro.scenarios.compiler` -- lower a pack to ``ExperimentSpec``s;
- :mod:`repro.scenarios.catalog`  -- the checked-in packs under
  ``<repo>/scenarios/``;
- :mod:`repro.scenarios.runner`   -- one-call compile-and-run;
- :mod:`repro.scenarios.expect`   -- verdicts for a pack's ``[[expect]]``
  rows against its results.
"""

from repro.scenarios.compiler import (
    CompiledCell,
    CompiledGrid,
    compile_pack,
    validate_pack,
)
from repro.scenarios.catalog import catalog, load_pack, pack_dir, pack_names
from repro.scenarios.expect import Verdict, check_rows
from repro.scenarios.loader import (
    PackError,
    ScenarioPack,
    load_pack_file,
    parse_pack,
)
from repro.scenarios.runner import run_pack

__all__ = [
    "CompiledCell",
    "CompiledGrid",
    "PackError",
    "ScenarioPack",
    "Verdict",
    "catalog",
    "check_rows",
    "compile_pack",
    "load_pack",
    "load_pack_file",
    "pack_dir",
    "pack_names",
    "parse_pack",
    "run_pack",
    "validate_pack",
]
