"""Outside-in per-layer trace: one ``cProfile`` pass folded by defining file.

The profile is taken from the benchmark's own files around the public call
into the deployment (``Deployment.run``); nothing inside ``src/`` is
instrumented. Every profiled function is a span at function granularity,
its ``tottime`` is the span's self time (duration minus child spans), and
spans are folded into layers by the file that defines them. The folded
table stays in memory and leaves with the run's JSON.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (path prefix under ``repro/``, layer). First match wins. A ``None``
#: layer marks files known to be off every workload's hot path (they fold
#: into ``other``); a file matching no rule is *unmapped*, which the test
#: suite rejects so a new module cannot fall silently out of the table.
LAYER_RULES: Tuple[Tuple[str, Optional[str]], ...] = (
    ("sim/engine.py", "sim.engine"),
    ("sim/process.py", "sim.process"),
    ("sim/cpu.py", "sim.cpu"),
    ("sim/wheel.py", "sim.wheel"),
    ("sim/timers.py", "sim.wheel"),
    ("sim/", None),
    ("net/nic.py", "net.nic"),
    ("net/", "net.network"),
    ("crypto/", "crypto"),
    ("consensus/", "consensus"),
    ("core/", "core"),
    ("config.py", "core"),
    ("errors.py", "core"),
    ("topology/", "topology"),
    ("runtime/clients.py", "runtime.clients"),
    ("runtime/workload.py", "runtime.workload"),
    ("runtime/metrics.py", "runtime.metrics"),
    ("runtime/cluster.py", "runtime.cluster"),
    ("runtime/", None),
    ("obs/", "obs"),
    ("analysis/", None),
    ("app/", None),
    ("perf/", None),
    ("scenarios/", None),
    ("cli.py", None),
    ("__init__.py", None),
    ("__main__.py", None),
)

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_RULES if layer is not None)
) + ("other",)

#: Public entry points whose exact call counts are boundary metrics:
#: metric -> ((file under repro/, function name), ...). cProfile counts a
#: generator once per resumption, so coroutine entry points
#: (``TreeComm.wait_for``) count resumptions, not logical calls.
BOUNDARY_CALLS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.sched_handle": (("sim/engine.py", "schedule"), ("sim/engine.py", "schedule_at")),
    "sim.sched_call": (("sim/engine.py", "schedule_call"), ("sim/engine.py", "schedule_call_at")),
    "sim.sched_now": (("sim/engine.py", "schedule_now"),),
    "sim.sched_timeout": (("sim/engine.py", "schedule_timeout"),),
    "sim.timeout_cancels": (("sim/wheel.py", "cancel"),),
    "net.send_calls": (("net/network.py", "send"),),
    "net.multicast_calls": (("net/network.py", "multicast"),),
    "crypto.sign_calls": (("crypto/bls.py", "new"), ("crypto/secp.py", "new")),
    "crypto.combine_calls": (("crypto/bls.py", "combine"), ("crypto/secp.py", "combine")),
    "crypto.verify_calls": (
        ("crypto/bls.py", "signers_for"), ("crypto/bls.py", "has"),
        ("crypto/secp.py", "signers_for"), ("crypto/secp.py", "has"),
    ),
    "core.wait_for_calls": (("core/comm.py", "wait_for"),),
    "runtime.clients.admit_calls": (("runtime/clients.py", "admit_batch"),),
    "runtime.clients.fill_calls": (("runtime/clients.py", "next_fill"),),
    "runtime.metrics.hist_adds": (("runtime/metrics.py", "add"),),
}


def repro_relative(filename: str) -> Optional[str]:
    """``sim/engine.py`` for ``.../src/repro/sim/engine.py``; None for
    files outside the package (builtins, stdlib, the benchmark itself)."""
    marker = os.sep + "repro" + os.sep
    index = filename.rfind(marker)
    if index < 0 or not filename.endswith(".py"):
        return None
    return filename[index + len(marker):].replace(os.sep, "/")


def layer_of(relative: str) -> Tuple[str, bool]:
    """(layer, mapped) for a path under ``repro/``."""
    for prefix, layer in LAYER_RULES:
        if relative == prefix or (prefix.endswith("/") and relative.startswith(prefix)):
            return (layer or "other"), True
    return "other", False


def unmapped_files(relative_paths: Iterable[str]) -> List[str]:
    return sorted(path for path in relative_paths if not layer_of(path)[1])


def profile_call(fn: Callable[[], None]) -> pstats.Stats:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


def fold(stats: pstats.Stats) -> Dict[str, object]:
    """Fold a profile into per-layer self time and call counts.

    Returns ``{"layers": {layer: {"self_s", "calls"}}, "total_s",
    "repro_self_s", "repro_other_s", "boundary_calls": {metric: calls}}``.
    Layer self times sum to ``total_s`` by construction (every profiled
    function lands in exactly one layer).
    """
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    boundary = {metric: 0 for metric in BOUNDARY_CALLS}
    wanted = {
        entry: metric for metric, entries in BOUNDARY_CALLS.items() for entry in entries
    }
    total = repro_self = repro_other = 0.0
    for (filename, _line, func), (_cc, calls, self_s, _ct, _callers) in stats.stats.items():
        relative = repro_relative(filename)
        layer = "other" if relative is None else layer_of(relative)[0]
        layers[layer]["self_s"] += self_s
        layers[layer]["calls"] += calls
        total += self_s
        if relative is not None:
            repro_self += self_s
            if layer == "other":
                repro_other += self_s
            metric = wanted.get((relative, func))
            if metric is not None:
                boundary[metric] += calls
    return {
        "layers": layers,
        "total_s": total,
        "repro_self_s": repro_self,
        "repro_other_s": repro_other,
        "boundary_calls": boundary,
    }
