"""Ablation A4: sensitivity of the headline speedup to the uplink model.

DESIGN.md's main substitution is a *strict per-process uplink*: one
message serializes at a time at the scenario's link rate. The paper's
physical testbed shapes each pair with NetEm but machines carry several
such streams concurrently, which mainly helps the star's leader (its
(N-1)·b/c sending time divides by the parallelism). This bench sweeps the
lane count and reports the Kauri-vs-HotStuff throughput ratio, showing the
qualitative conclusion (trees win, more with scale) is robust to the
substitution while the absolute ratio depends on it.
"""

from conftest import SCALE, run_grid, run_once

from repro.analysis import format_table
from repro.config import GLOBAL, KB
from repro.runtime.sweep import ExperimentSpec
from repro.runtime.horizon import adaptive_duration


def sweep():
    cells, specs = [], []
    for lanes in (1, 4, 16):
        for mode in ("kauri", "hotstuff-bls"):
            duration = adaptive_duration(mode, 100, GLOBAL, 250 * KB, scale=SCALE)
            if mode.startswith("hotstuff"):
                duration = max(duration / lanes, 60.0)  # lanes shrink rounds
            cells.append((lanes, mode))
            specs.append(
                ExperimentSpec(
                    mode=mode,
                    scenario="global",
                    n=100,
                    duration=duration,
                    max_commits=int(120 * SCALE) or 12,
                    uplink_lanes=lanes,
                )
            )
    return dict(zip(cells, run_grid(specs)))


def test_ablation_uplink_parallelism(benchmark, save_table):
    results = run_once(benchmark, sweep)
    rows = []
    for lanes in (1, 4, 16):
        kauri = results[(lanes, "kauri")].throughput_txs
        hotstuff = results[(lanes, "hotstuff-bls")].throughput_txs
        rows.append(
            (
                lanes,
                round(kauri / 1000.0, 3),
                round(hotstuff / 1000.0, 3),
                round(kauri / max(hotstuff, 1e-9), 1),
            )
        )
    save_table(
        "ablation_uplink",
        format_table(
            ("Uplink lanes", "Kauri Ktx/s", "HotStuff-bls Ktx/s", "Speedup"),
            rows,
            title="Ablation: uplink model (N=100, global)",
        ),
    )

    speedups = {row[0]: row[3] for row in rows}
    # Kauri wins under every uplink model ...
    assert all(s > 1.0 for s in speedups.values())
    # ... and the strict model gives the largest ratio (the substitution
    # inflates the star's sending time the most)
    assert speedups[1] >= speedups[4] >= speedups[16] * 0.8
