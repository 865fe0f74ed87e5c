"""Figures 3-4: the pipelining schedules, measured (§4.1-§4.2).

The paper's Figures 3 and 4 are schematic Gantt charts: HotStuff starts
one new instance per round (depth 4); Kauri's stretch starts several
instances during one round. This bench reconstructs the same charts from
traced runs and verifies the measured concurrency relations:

- HotStuff's peak in-flight instance count is bounded by its pipeline
  depth of 4;
- Kauri's exceeds HotStuff's whenever the model stretch is above 1
  ("a message carries information from consensus instances/rounds that
  are farther away in the pipeline");
- Kauri-np never overlaps instances at all.
"""

from conftest import run_once

from repro.analysis import extract_spans, format_table, max_concurrency, render_gantt
from repro.net.trace import MessageTrace
from repro.runtime.cluster import Cluster


def traced_run(mode, duration=60.0, n=31, scenario="regional"):
    cluster = Cluster(n=n, mode=mode, scenario=scenario)
    trace = MessageTrace(capacity=300_000)
    cluster.network.observers.append(trace)
    cluster.start()
    cluster.run(duration=duration, max_commits=40)
    leader = cluster.policy.leader_of(0)
    spans = extract_spans(trace, leader)
    return spans, cluster


def sweep():
    return {
        mode: traced_run(mode)[0]
        for mode in ("kauri", "kauri-np", "hotstuff-bls")
    }


def test_fig3_fig4_measured_pipelines(benchmark, save_table):
    data = run_once(benchmark, sweep)
    charts = []
    rows = []
    for mode, spans in data.items():
        depth = max_concurrency(spans)
        rows.append((mode, len(spans), depth))
        charts.append(f"--- {mode} (peak in-flight: {depth}) ---")
        charts.append(render_gantt(spans[4:], max_rows=8))
    save_table(
        "fig3_fig4",
        format_table(
            ("System", "Instances traced", "Peak in-flight"),
            rows,
            title="Figures 3-4: measured pipelining schedules (N=31, regional)",
        )
        + "\n\n"
        + "\n".join(charts),
    )

    depth = {mode: max_concurrency(spans) for mode, spans in data.items()}
    # Kauri-np: strictly sequential instances (Figure 4's counterfactual)
    assert depth["kauri-np"] == 1
    # HotStuff: chained pipelining, bounded by the 4-round depth (§4.1)
    assert 2 <= depth["hotstuff-bls"] <= 4
    # Kauri: the stretch multiplies the depth (§4.2)
    assert depth["kauri"] > depth["hotstuff-bls"]
