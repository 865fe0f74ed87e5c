"""Unit tests for the pipelining-schedule charts (Figures 3-4).

The measured cases run each mode once, at ``repro fig 3 --scale 0.2``'s
size (N=31 regional, 12 s / 30 commits), and assert the relations the
paper's Figures 3-4 draw on the RunReport's decided ``rounds`` rows.
"""

import pytest

from repro.analysis import max_concurrency, pipeline_rounds, render_gantt


@pytest.fixture(scope="module")
def rounds():
    return {
        mode: pipeline_rounds(mode, duration=12.0, max_commits=30)
        for mode in ("kauri", "kauri-np", "hotstuff-bls")
    }


def row(height, start, disseminate, end):
    return {"height": height, "start": start, "disseminate": disseminate, "end": end}


def test_spans_ordered_and_wellformed(rounds):
    for rows in rounds.values():
        assert rows
        assert [r["height"] for r in rows] == sorted(r["height"] for r in rows)
        for r in rows:
            assert r["decided"]
            assert r["start"] <= r["start"] + r["disseminate"] <= r["end"]


def test_sequential_mode_has_no_overlap(rounds):
    """Kauri-np: strictly sequential instances (Figure 4's counterfactual)."""
    rows = rounds["kauri-np"]
    assert max_concurrency(rows) == 1
    for earlier, later in zip(rows, rows[1:]):
        assert later["start"] >= earlier["end"] - 1e-9


def test_hotstuff_depth_is_bounded_by_its_pipeline(rounds):
    """HotStuff: chained pipelining, bounded by the 4-round depth (§4.1)."""
    assert 2 <= max_concurrency(rounds["hotstuff-bls"]) <= 4


def test_kauri_overlaps_instances(rounds):
    """Kauri: the stretch multiplies the depth beyond HotStuff's (§4.2)."""
    assert max_concurrency(rounds["kauri"]) > max_concurrency(rounds["hotstuff-bls"])


def test_max_concurrency_synthetic():
    rows = [
        row(1, 0.0, 1.0, 4.0),
        row(2, 1.0, 1.0, 5.0),
        row(3, 2.0, 1.0, 6.0),
        row(4, 10.0, 1.0, 12.0),
    ]
    assert max_concurrency(rows) == 3
    assert max_concurrency([]) == 0


def test_render_gantt_output():
    rows = [row(1, 0.0, 1.0, 2.0), row(2, 0.5, 1.0, 2.5)]
    art = render_gantt(rows, width=20)
    lines = art.split("\n")
    assert len(lines) == 3
    assert "t_s" in lines[0]
    assert lines[1] == "h=   1 |#########........   |"
    assert "#" in lines[2] and "." in lines[2]


def test_render_gantt_empty():
    assert "no decided instances" in render_gantt([])
