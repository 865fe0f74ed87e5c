"""Tables and the pipelining Gantt view.

Tables 1-2 come from :mod:`repro.analysis.tables` and Figures 3-4 from the
RunReport ``rounds`` of :mod:`repro.analysis.pipeline_viz`. Every other
evaluation figure, Figure 12 included, is a scenario pack under
``scenarios/``, run with ``repro scenarios run <pack>`` or
:func:`repro.scenarios.run_pack`. EXPERIMENTS.md records
paper-vs-measured. ``format_table`` is the CLI's text renderer
(:mod:`repro.cli`), re-exported for the examples.
"""

from repro.cli import format_table
from repro.analysis.tables import table1_rows, table2_rows
from repro.analysis.pipeline_viz import (
    max_concurrency,
    pipeline_chart,
    pipeline_rounds,
    render_gantt,
)

__all__ = [
    "format_table",
    "table1_rows",
    "table2_rows",
    "pipeline_rounds",
    "pipeline_chart",
    "render_gantt",
    "max_concurrency",
]
