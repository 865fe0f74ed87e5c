"""Ablation A1: model-chosen stretch vs naive fixed choices (§4.3, §7.2).

DESIGN.md calls out the pipelining stretch as the central design choice:
"using arbitrary pipeline values results in poor performance" (§1). This
bench quantifies that: the model-derived stretch must beat both
under-pipelining (stretch ~ HotStuff's implicit 0.25-per-round) and heavy
over-pipelining, across two scenarios.
"""

from conftest import SCALE, run_grid, run_once

from repro.analysis import format_table
from repro.config import KB, SCENARIOS
from repro.runtime.sweep import ExperimentSpec
from repro.runtime.horizon import adaptive_duration, model_for


def sweep():
    cells, specs = [], []
    for scenario in ("global", "regional"):
        params = SCENARIOS[scenario]
        duration = adaptive_duration("kauri", 100, params, 250 * KB, scale=SCALE)
        for label, stretch in (
            ("under (0.25)", 0.25),
            ("model", None),
            ("over (x8)", None),
        ):
            if label.startswith("over"):
                stretch = 8.0 * max(
                    0.5, model_for("kauri", 100, params, 250 * KB).pipelining_stretch
                )
            cells.append((scenario, label))
            specs.append(
                ExperimentSpec(
                    mode="kauri",
                    scenario=scenario,
                    n=100,
                    stretch=stretch,
                    duration=duration,
                    max_commits=int(150 * SCALE) or 15,
                )
            )
    rows = []
    for (scenario, label), result in zip(cells, run_grid(specs)):
        rows.append(
            (
                scenario,
                label,
                round(result.stretch, 2) if result.stretch is not None else "auto",
                round(result.throughput_txs / 1000.0, 3),
                round(result.latency["p50"], 2),
                result.instance_failures,
            )
        )
    return rows


def test_ablation_model_vs_fixed_stretch(benchmark, save_table):
    rows = run_once(benchmark, sweep)
    save_table(
        "ablation_stretch",
        format_table(
            ("Scenario", "Stretch choice", "Value", "Ktx/s", "p50 lat (s)", "Failed instances"),
            rows,
            title="Ablation: pipelining stretch selection (N=100)",
        ),
    )

    def cell(scenario, label, col):
        return next(r[col] for r in rows if r[0] == scenario and r[1] == label)

    for scenario in ("global", "regional"):
        model_tput = cell(scenario, "model", 3)
        # the model beats under-pipelining on throughput
        assert model_tput > cell(scenario, "under (0.25)", 3)
        # heavy over-pipelining either collapses outright (zero commits,
        # instance failures piling up) or pays in latency
        over_tput = cell(scenario, "over (x8)", 3)
        over_lat = cell(scenario, "over (x8)", 4)
        over_failures = cell(scenario, "over (x8)", 5)
        assert model_tput > 0.7 * over_tput
        assert over_failures > 0 or over_lat >= cell(scenario, "model", 4)
