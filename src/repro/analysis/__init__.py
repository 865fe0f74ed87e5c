"""Tables, the pipelining Gantt view and Figure 12.

Tables 1-2 come from :mod:`repro.analysis.tables`, Figures 3-4 from the
traced spans of :mod:`repro.analysis.pipeline_viz`, and Figure 12 from
:func:`fig12_reconfiguration`, whose fault placement needs the built
cluster's leader schedule. Every other evaluation figure is a scenario
pack under ``scenarios/``, run with ``repro scenarios run <pack>`` or
:func:`repro.scenarios.run_pack`. EXPERIMENTS.md records
paper-vs-measured. ``format_table`` is the CLI's text renderer
(:mod:`repro.cli`), re-exported for the benchmark scripts and examples.
"""

from repro.cli import format_table
from repro.analysis.tables import table1_rows, table2_measured_rows, table2_rows
from repro.analysis.pipeline_viz import (
    InstanceSpan,
    extract_spans,
    max_concurrency,
    render_gantt,
)
from repro.analysis.figures import (
    RED_CIRCLE,
    fig12_reconfiguration,
    saturation_marker,
)

__all__ = [
    "format_table",
    "table1_rows",
    "table2_rows",
    "table2_measured_rows",
    "InstanceSpan",
    "extract_spans",
    "render_gantt",
    "max_concurrency",
    "RED_CIRCLE",
    "saturation_marker",
    "fig12_reconfiguration",
]
