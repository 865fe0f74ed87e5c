"""Figures 3-4: the pipelining schedules, measured (§4.1-§4.2).

The paper's Figures 3 and 4 are schematic Gantt charts: HotStuff starts
one new instance per round (depth 4); Kauri's stretch starts several
instances during one round. This bench draws the same charts from the
decided rows of each observed run's RunReport ``rounds`` and verifies the
measured concurrency relations:

- HotStuff's peak in-flight instance count is bounded by its pipeline
  depth of 4;
- Kauri's exceeds HotStuff's whenever the model stretch is above 1
  ("a message carries information from consensus instances/rounds that
  are farther away in the pipeline");
- Kauri-np never overlaps instances at all.
"""

from conftest import run_once

from repro.analysis import (
    format_table,
    max_concurrency,
    pipeline_chart,
    pipeline_rounds,
)


def sweep():
    return {
        mode: pipeline_rounds(mode)
        for mode in ("kauri", "kauri-np", "hotstuff-bls")
    }


def test_fig3_fig4_measured_pipelines(benchmark, save_table):
    data = run_once(benchmark, sweep)
    rows = [(mode, len(rounds), max_concurrency(rounds)) for mode, rounds in data.items()]
    save_table(
        "fig3_fig4",
        format_table(
            ("System", "Decided instances", "Peak in-flight"),
            rows,
            title="Figures 3-4: measured pipelining schedules (N=31, regional)",
        )
        + "\n\n"
        + "\n".join(pipeline_chart(mode, rounds) for mode, rounds in data.items()),
    )

    depth = {mode: max_concurrency(rounds) for mode, rounds in data.items()}
    # Kauri-np: strictly sequential instances (Figure 4's counterfactual)
    assert depth["kauri-np"] == 1
    # HotStuff: chained pipelining, bounded by the 4-round depth (§4.1)
    assert 2 <= depth["hotstuff-bls"] <= 4
    # Kauri: the stretch multiplies the depth (§4.2)
    assert depth["kauri"] > depth["hotstuff-bls"]
