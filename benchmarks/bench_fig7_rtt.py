"""Figure 7: effect of RTT on throughput (§7.5).

Regional bandwidth (100 Mb/s), N=100, RTT swept 50-400 ms. Shape: HotStuff
throughput decays as RTT grows; Kauri holds nearly constant because the
model raises the pipelining stretch with the RTT (7 -> 33 in the paper).

The grid comes from the checked-in ``scenarios/fig7.toml`` pack; the model
stretch is the §4.3 model's for each cell's derived scenario.
"""

from conftest import SCALE, run_grid, run_once

from repro.analysis import format_table
from repro.config import KB
from repro.runtime.horizon import model_for
from repro.scenarios import compile_pack, load_pack


def test_fig7_rtt_sweep(benchmark, save_table):
    grid = compile_pack(load_pack("fig7"), scale=SCALE)
    results = run_once(benchmark, lambda: run_grid(grid.specs))
    data = {}
    for cell, r in zip(grid.cells, results):
        spec = cell.spec
        model = model_for(spec.mode, spec.n, spec.scenario, 250 * KB)
        data.setdefault(spec.mode, []).append(
            (cell.bindings["scenario"]["rtt_ms"],
             r.throughput_txs / 1000.0,
             round(model.pipelining_stretch, 1))
        )
    rows = []
    for mode, series in data.items():
        for rtt, ktx, stretch in series:
            rows.append((mode, rtt, ktx, stretch))
    save_table(
        "fig7",
        format_table(
            ("System", "RTT (ms)", "Ktx/s", "Model stretch"),
            rows,
            title="Figure 7: regional bandwidth, N=100, varying RTT",
        ),
    )

    kauri = {rtt: ktx for rtt, ktx, _ in data["kauri"]}
    hotstuff = {rtt: ktx for rtt, ktx, _ in data["hotstuff-secp"]}
    # Kauri's throughput stays within a modest band across an 8x RTT range
    assert kauri[400] > 0.6 * kauri[50]
    # ... and beats HotStuff at every RTT
    for rtt in kauri:
        assert kauri[rtt] > hotstuff[rtt]
    # the model's stretch grows with the RTT (paper: 7 -> 33)
    stretches = [s for _, _, s in data["kauri"]]
    assert stretches == sorted(stretches)
    assert stretches[-1] > 2 * stretches[0]
