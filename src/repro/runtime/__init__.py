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
