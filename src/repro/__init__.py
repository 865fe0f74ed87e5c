"""Kauri: Scalable BFT Consensus with Pipelined Tree-Based Dissemination
and Aggregation (SOSP 2021) -- a full reproduction on a deterministic
discrete-event substrate.

Quick start::

    from repro import run_experiment

    result = run_experiment(mode="kauri", scenario="global", n=100,
                            duration=30.0)
    print(result.throughput_txs, "tx/s")

Public surface:

- :func:`repro.runtime.experiment.run_experiment` / :class:`repro.runtime.cluster.Cluster`
  -- build and run deployments.
- :mod:`repro.core` -- the Kauri abstraction: tree ``broadcastMsg`` /
  ``waitFor`` (Algorithms 2-3) over impatient receives (Alg. 1), the §4.3
  performance model, protocol nodes.
- :mod:`repro.topology` -- trees, robustness (Defs. 3-4), bins (Alg. 4),
  reconfiguration (§5).
- :mod:`repro.crypto` -- cryptographic collections (§3.3.2) over secp-style
  lists and BLS-style multisignatures.
- :mod:`repro.net` / :mod:`repro.sim` -- the simulated testbed: NICs,
  links, tagged mailboxes, fault injection, event kernel.
- :mod:`repro.analysis` -- generators for every table and figure of §7.

The names below resolve on first access, so ``import repro`` loads no
simulation code. The run-path subpackages (``sim`` to ``runtime``)
re-export nothing: import any other name from the module that defines it.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it (PEP 562 lazy attributes).
_EXPORTS = {
    "run_experiment": "repro.runtime.experiment",
    "Cluster": "repro.runtime.cluster",
    "ExperimentResult": "repro.runtime.experiment",
    "Metrics": "repro.runtime.metrics",
    "PerfModel": "repro.core.perfmodel",
    "TreeComm": "repro.core.comm",
    "MODES": "repro.core.modes",
    "mode_spec": "repro.core.modes",
    "Tree": "repro.topology.tree",
    "build_tree": "repro.topology.builder",
    "build_star": "repro.topology.builder",
    "ReconfigurationPolicy": "repro.topology.reconfig",
    "ProtocolConfig": "repro.config",
    "NetworkParams": "repro.config",
    "SCENARIOS": "repro.config",
    "GLOBAL": "repro.config",
    "REGIONAL": "repro.config",
    "NATIONAL": "repro.config",
    "KB": "repro.config",
    "MB": "repro.config",
    "max_faults": "repro.config",
    "quorum_size": "repro.config",
    "resilientdb_clusters": "repro.config",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # later lookups skip this hook
    return value
