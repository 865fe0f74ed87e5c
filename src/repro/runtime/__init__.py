"""Deployment runtime: clusters, workloads, metrics, and experiments.

:class:`~repro.runtime.cluster.Cluster` wires a full deployment together
(simulator, PKI, network shaping, reconfiguration policy, protocol nodes,
fault plan) and runs it to a stop condition. The experiment helpers on top
reproduce the paper's measurement methodology: warm-up exclusion,
throughput over a steady-state window, latency percentiles, and testbed
saturation flags (the paper's red circles).

Clients: a :class:`~repro.runtime.workload.WorkloadHarness` submits
:class:`~repro.runtime.clients.TxChunk` runs to per-node
:class:`~repro.runtime.clients.MempoolWorkload` mempools; a cluster
without one runs saturated (every block full).
"""

from repro.runtime.metrics import CommitRecord, LatencyHistogram, Metrics
from repro.runtime.clients import MempoolWorkload, TxChunk
from repro.runtime.cluster import Cluster, build_cluster_tree
from repro.runtime.experiment import ExperimentResult, run_experiment
from repro.runtime.sweep import (
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    SweepStats,
    run_specs,
)
from repro.runtime.workload import (
    ClientClassSpec,
    LoadShape,
    MmppModulator,
    WorkloadHarness,
    WorkloadSpec,
    ZipfSampler,
    make_workload_factory,
)

__all__ = [
    "Metrics",
    "CommitRecord",
    "MempoolWorkload",
    "LatencyHistogram",
    "TxChunk",
    "Cluster",
    "build_cluster_tree",
    "ExperimentResult",
    "run_experiment",
    "ExperimentSpec",
    "ResultCache",
    "SweepRunner",
    "SweepStats",
    "run_specs",
    "LoadShape",
    "MmppModulator",
    "ZipfSampler",
    "ClientClassSpec",
    "WorkloadSpec",
    "WorkloadHarness",
    "make_workload_factory",
]
