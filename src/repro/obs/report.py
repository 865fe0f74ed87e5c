"""RunReport: one JSON document saying where a run's simulated time went.

Joins the windowed resource accounting (:class:`~repro.sim.cpu.Cpu`,
:class:`~repro.net.nic.Nic`), the per-instance phase spans
(:class:`~repro.obs.recorder.PhaseRecorder`) and the commit metrics
(:class:`~repro.runtime.metrics.Metrics`) over one half-open measurement
window into the paper's evaluation vocabulary:

- per-node CPU utilization with saturation flags (utilization >= threshold
  over the window -- the red-circle convention of Fig. 6);
- per-NIC bytes, busy fractions, backlog and queue-depth high-water marks,
  plus the top-k hottest NICs;
- per-round dissemination / aggregation / wait spans (the measured
  analogue of §4.3's t_s / t_p / t_r);
- pacemaker, view-change and fault-injector counters.

:func:`report_sections` builds the run-level sections alone, for every
run: they are the run's result record. :func:`assemble_report` adds the
per-node rows and rounds.

Reports are deterministic: every number is a function of the simulation
(no wall clock, no dict-order dependence), floats are rounded to a fixed
precision, and :func:`report_json` serializes with sorted keys -- the same
spec always yields byte-identical JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.recorder import SPAN_KINDS

#: Bump when the report layout changes; the schema file tracks this.
REPORT_SCHEMA_VERSION = 1

#: Checked-in structural schema (validated in CI against every artifact).
SCHEMA_PATH = Path(__file__).with_name("run_report.schema.json")

#: Decimal places kept for every float in a report. Plenty for simulated
#: seconds/fractions while keeping the JSON stable and compact.
FLOAT_DECIMALS = 9


def _rounded(value: Any) -> Any:
    """Recursively round floats so serialized reports are stable."""
    if isinstance(value, float):
        return round(value, FLOAT_DECIMALS)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def build_report(
    cluster: Any,
    start: Optional[float] = None,
    end: Optional[float] = None,
    saturation_threshold: float = 0.95,
    top_k_nics: int = 5,
) -> Dict[str, Any]:
    """Assemble the RunReport for ``cluster`` over ``[start, end)``.

    ``start`` defaults to 0 (whole run), ``end`` to the current simulated
    time. Call after :meth:`~repro.runtime.cluster.Cluster.run` returns.
    """
    sections = report_sections(cluster, start, end, saturation_threshold)
    return assemble_report(cluster, sections, top_k_nics)


def report_sections(
    cluster: Any,
    start: Optional[float] = None,
    end: Optional[float] = None,
    saturation_threshold: float = 0.95,
) -> Dict[str, Any]:
    """The run's result record over ``[start, end)``, unrounded.

    Holds the report's ``run``, ``window``, ``totals``, ``saturation`` and
    ``faults`` sections, plus ``fast_path`` and ``workload`` when they
    apply. :func:`~repro.runtime.experiment.run_experiment` reads every
    :class:`~repro.runtime.experiment.ExperimentResult` number from it;
    :func:`assemble_report` adds the per-node detail and rounds.
    """
    sim = cluster.sim
    lo = 0.0 if start is None else start
    hi = sim.now if end is None else end
    metrics = cluster.metrics
    root = cluster.policy.leader_of(0)
    saturated = [
        node.node_id
        for node in cluster.nodes
        if node.cpu.utilization(since=lo, until=hi) >= saturation_threshold
    ]
    sections: Dict[str, Any] = {
        "schema": REPORT_SCHEMA_VERSION,
        "run": {
            "mode": cluster.mode.name,
            "scenario": getattr(cluster.scenario, "name", str(cluster.scenario)),
            "n": cluster.n,
            "simulated_seconds": sim.now,
            "events_processed": sim.events_processed,
        },
        "window": {"start": lo, "end": hi, "duration": max(hi - lo, 0.0)},
        "totals": {
            "committed_blocks": metrics.committed_blocks,
            "throughput_txs": metrics.throughput_txs(lo, hi),
            "throughput_blocks": metrics.throughput_blocks(lo, hi),
            "latency": metrics.latency_stats(lo, hi),
            "view_changes": len(metrics.view_changes),
            "max_view": metrics.max_view,
            "messages_sent": cluster.network.messages_sent,
            "messages_delivered": cluster.network.messages_delivered,
            "instance_failures": sum(n.instance_failures for n in cluster.nodes),
        },
        "saturation": {
            "threshold": saturation_threshold,
            "cpu_saturated": bool(saturated),
            "saturated_nodes": saturated,
            "leader": root,
            "leader_cpu_utilization": cluster.nodes[root].cpu.utilization(
                since=lo, until=hi
            ),
        },
        "faults": {
            "dropped_messages": cluster.faults.dropped_messages,
            "crashed": sorted(cluster.faults.crashed),
            "byzantine": sorted(cluster.faults.byzantine),
        },
    }
    # Fast-path protocols only: reports of the six classic modes must stay
    # byte-identical (the golden tests pin them), so the section is
    # strictly conditional.
    if cluster.mode.protocol == "kudzu":
        sections["fast_path"] = {
            "fast_commits": sum(n.fast_commits for n in cluster.nodes),
            "fast_fallbacks": sum(n.fast_fallbacks for n in cluster.nodes),
        }
    # Workload-engine runs only (same byte-identity rule as fast_path):
    # a WorkloadHarness registers itself on the cluster; plain runs keep
    # ``workload_harness`` None and their reports are unchanged.
    if cluster.workload_harness is not None:
        sections["workload"] = cluster.workload_harness.summary()
    return sections


def assemble_report(
    cluster: Any, sections: Dict[str, Any], top_k_nics: int = 5
) -> Dict[str, Any]:
    """The rounded RunReport: :func:`report_sections`' record plus the
    per-node rows, the ``top_k_nics`` hottest NICs and the root's rounds,
    over the record's own window and saturation threshold."""
    lo = sections["window"]["start"]
    hi = sections["window"]["end"]
    saturation_threshold = sections["saturation"]["threshold"]
    recorders = cluster.recorders

    nodes: List[Dict[str, Any]] = []
    nic_heat: List[Dict[str, Any]] = []
    for node in cluster.nodes:
        node_id = node.node_id
        cpu = node.cpu
        nic = cluster.network.nic(node_id)
        endpoint = cluster.network.endpoint(node_id)
        cpu_utilization = cpu.utilization(since=lo, until=hi)
        nic_row = {
            "bytes_sent": nic.bytes_sent,
            "bytes_in_window": nic.bytes_in(lo, hi),
            "busy_fraction": nic.utilization(since=lo, until=hi),
            "max_backlog_s": nic.max_backlog,
            "max_queue_depth": nic.max_queue_depth,
            "messages_sent": nic.messages_sent,
        }
        nic_heat.append({"id": node_id, **nic_row})
        pacemaker = node.pacemaker
        entry: Dict[str, Any] = {
            "id": node_id,
            "crashed": node_id in cluster.faults.crashed,
            "cpu": {
                "utilization": cpu_utilization,
                "busy_in_window": cpu.busy_in(lo, hi),
                "busy_time": cpu.busy_time,
                "jobs_completed": cpu.jobs_completed,
                "jobs_cancelled": cpu.jobs_cancelled,
                "saturated": cpu_utilization >= saturation_threshold,
            },
            "nic": nic_row,
            "endpoint": {
                "messages_delivered": endpoint.messages_delivered,
                "max_queued": endpoint.max_queued,
            },
            "pacemaker": {
                "timeouts_fired": 0 if pacemaker is None else pacemaker.timeouts_fired,
            },
            "instance_failures": node.instance_failures,
        }
        recorder = recorders.get(node_id)
        if recorder is not None:
            entry["phases"] = recorder.summary(lo, hi)
        nodes.append(entry)

    # Hottest NICs by traffic actually carried inside the window; node id
    # breaks ties so the ordering (and thus the JSON) is deterministic.
    nic_heat.sort(key=lambda row: (-row["bytes_in_window"], row["id"]))

    root = sections["saturation"]["leader"]
    rounds: List[Dict[str, Any]] = []
    root_recorder = recorders.get(root)
    if root_recorder is not None:
        for rec in root_recorder.instances(lo, hi):
            rounds.append(
                {
                    "height": rec["height"],
                    "node": root,
                    "start": rec["start"],
                    "end": rec["end"],
                    "decided": rec["decided"],
                    **{kind: rec[kind] for kind in SPAN_KINDS},
                }
            )

    return _rounded({
        **sections,
        "nodes": nodes,
        "hot_nics": nic_heat[: max(top_k_nics, 0)],
        "rounds": rounds,
    })


def report_json(report: Dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline-
    terminated -- byte-identical for identical reports."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Schema validation (stdlib-only subset of JSON Schema)
# ---------------------------------------------------------------------------
def load_schema(path: Optional[Path] = None) -> Dict[str, Any]:
    with open(path or SCHEMA_PATH) as fh:
        return json.load(fh)


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "null": type(None),
}


def _check(value: Any, schema: Dict[str, Any], where: str, problems: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        ok = False
        for name in allowed:
            if name == "number":
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            elif name == "integer":
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, _TYPES[name])
            if ok:
                break
        if not ok:
            problems.append(
                f"{where}: expected {expected}, got {type(value).__name__}"
            )
            return
    if isinstance(value, dict):
        for field in schema.get("required", []):
            if field not in value:
                problems.append(f"{where}: missing required field {field!r}")
        for field, sub in schema.get("properties", {}).items():
            if field in value:
                _check(value[field], sub, f"{where}.{field}", problems)
    elif isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for index, item in enumerate(value):
                _check(item, items, f"{where}[{index}]", problems)


def validate_report(
    report: Dict[str, Any], schema: Optional[Dict[str, Any]] = None
) -> List[str]:
    """Structural validation against the checked-in schema.

    Returns a list of human-readable problems (empty = valid). Implements
    the subset of JSON Schema the report schema uses -- ``type`` (including
    union lists), ``required``, ``properties``, ``items`` -- with the
    standard library only.
    """
    problems: List[str] = []
    _check(report, schema or load_schema(), "report", problems)
    if not problems and report.get("schema") != REPORT_SCHEMA_VERSION:
        problems.append(
            f"report: schema version {report.get('schema')!r} != "
            f"{REPORT_SCHEMA_VERSION}"
        )
    return problems
