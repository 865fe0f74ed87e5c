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
  ``waitFor`` (Algorithms 2-3), the §4.3 performance model, protocol nodes.
- :mod:`repro.topology` -- trees, robustness (Defs. 3-4), bins (Alg. 4),
  reconfiguration (§5).
- :mod:`repro.crypto` -- cryptographic collections (§3.3.2) over secp-style
  lists and BLS-style multisignatures.
- :mod:`repro.net` / :mod:`repro.sim` -- the simulated testbed: NICs,
  links, impatient channels (Alg. 1), fault injection, event kernel.
- :mod:`repro.analysis` -- generators for every table and figure of §7.
"""

from repro.config import (
    GLOBAL,
    KB,
    MB,
    NATIONAL,
    REGIONAL,
    SCENARIOS,
    NetworkParams,
    ProtocolConfig,
    max_faults,
    quorum_size,
    resilientdb_clusters,
)
from repro.core import MODES, PerfModel, TreeComm, mode_spec
from repro.runtime import (
    Cluster,
    ExperimentResult,
    Metrics,
    run_experiment,
)
from repro.topology import ReconfigurationPolicy, Tree, build_star, build_tree

__version__ = "1.0.0"

__all__ = [
    "run_experiment",
    "Cluster",
    "ExperimentResult",
    "Metrics",
    "PerfModel",
    "TreeComm",
    "MODES",
    "mode_spec",
    "Tree",
    "build_tree",
    "build_star",
    "ReconfigurationPolicy",
    "ProtocolConfig",
    "NetworkParams",
    "SCENARIOS",
    "GLOBAL",
    "REGIONAL",
    "NATIONAL",
    "KB",
    "MB",
    "max_faults",
    "quorum_size",
    "resilientdb_clusters",
    "__version__",
]
