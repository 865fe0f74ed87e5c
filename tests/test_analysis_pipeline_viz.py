"""Unit tests for the pipelining-schedule reconstruction (Figures 3-4)."""

import pytest

from repro import Cluster
from repro.analysis import extract_spans, max_concurrency, render_gantt
from repro.analysis.pipeline_viz import InstanceSpan
from repro.net.trace import MessageTrace


def traced(mode, duration=10.0, n=13):
    cluster = Cluster(n=n, mode=mode, scenario="national")
    trace = MessageTrace(capacity=200_000)
    cluster.network.observers.append(trace)
    cluster.start()
    cluster.run(duration=duration)
    return extract_spans(trace, cluster.policy.leader_of(0))


def test_spans_ordered_and_wellformed():
    spans = traced("kauri")
    assert spans
    assert [s.height for s in spans] == sorted(s.height for s in spans)
    for span in spans:
        assert span.send_start <= span.send_end <= span.qc_end


def test_sequential_mode_has_no_overlap():
    spans = traced("kauri-np")
    assert max_concurrency(spans) == 1
    for earlier, later in zip(spans, spans[1:]):
        assert later.send_start >= earlier.qc_end - 1e-9


def test_kauri_overlaps_instances():
    assert max_concurrency(traced("kauri")) > 1


def test_max_concurrency_synthetic():
    spans = [
        InstanceSpan(1, 0.0, 1.0, 4.0),
        InstanceSpan(2, 1.0, 2.0, 5.0),
        InstanceSpan(3, 2.0, 3.0, 6.0),
        InstanceSpan(4, 10.0, 11.0, 12.0),
    ]
    assert max_concurrency(spans) == 3
    assert max_concurrency([]) == 0


def test_render_gantt_output():
    spans = [InstanceSpan(1, 0.0, 1.0, 2.0), InstanceSpan(2, 0.5, 1.5, 2.5)]
    art = render_gantt(spans, width=20)
    lines = art.split("\n")
    assert len(lines) == 3
    assert "h=   1" in lines[1]
    assert "#" in lines[1] and "." in lines[1]


def test_render_gantt_empty():
    assert "no completed instances" in render_gantt([])
