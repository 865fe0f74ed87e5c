"""Import boundary: a run loads only the code it runs.

The run-path subpackages (``sim`` to ``runtime``) re-export nothing and
only the top-level ``repro`` resolves names lazily (DESIGN.md, "Import
boundary"). So a fresh interpreter that builds and runs one deployment, or
lists the modes, never compiles the sweep engine, the experiment helpers,
the autotuner or the analysis, scenario and report packages.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules one deployment never needs.
NOT_ON_THE_RUN_PATH = (
    "multiprocessing",
    "concurrent.futures",
    "repro.runtime.sweep",
    "repro.runtime.experiment",
    "repro.core.autotune",
    "repro.analysis",
    "repro.scenarios",
    "repro.obs",
)

#: Packages ``repro modes`` never needs.
NOT_LOADED_BY_MODES = ("repro.analysis", "repro.runtime", "repro.scenarios", "repro.obs")


def loaded_by(code):
    """Every module in ``sys.modules`` after ``code`` ran in a fresh
    interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def under(modules, packages):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def test_a_deployment_loads_only_the_run_path():
    loaded = loaded_by(
        "from repro.runtime.cluster import Cluster\n"
        "cluster = Cluster(n=4, scenario='national')\n"
        "cluster.start()\n"
        "cluster.run(duration=10.0, max_commits=2)\n"
        "assert cluster.metrics.committed_blocks >= 2"
    )
    assert "repro.runtime.cluster" in loaded
    assert under(loaded, NOT_ON_THE_RUN_PATH) == []


def test_repro_modes_loads_no_runtime_or_analysis():
    loaded = loaded_by(
        "import runpy, sys\n"
        "sys.argv = ['repro', 'modes']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code"
    )
    assert "repro.cli" in loaded
    assert under(loaded, NOT_LOADED_BY_MODES) == []


@pytest.mark.parametrize("name", sorted(set(repro.__all__) - {"__version__"}))
def test_top_level_name_is_its_defining_modules_object(name):
    module = importlib.import_module(repro._EXPORTS[name])
    value = getattr(repro, name)
    assert value is getattr(module, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module.__name__


def test_all_lists_every_top_level_name():
    assert sorted(repro.__all__) == sorted([*repro._EXPORTS, "__version__"])


def test_star_import_binds_every_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_unknown_top_level_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'repro' has no attribute 'Nonexistent'"):
        repro.Nonexistent  # noqa: B018
