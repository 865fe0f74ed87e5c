"""repro.obs -- bottleneck-attribution observability for simulated runs.

Answers *which resource binds* for any configuration: exact windowed CPU
utilization and link busy fractions (the inputs to the paper's red-circle
CPU-saturation convention, Fig. 6), per-round dissemination / aggregation /
wait spans (the measured analogue of §4.3's decomposition), and one
deterministic :func:`build_report` JSON document joining them with the
commit metrics. Enable per run via ``run_experiment(observability=True)``,
``ExperimentSpec(observability=True)``, or ``repro run --report PATH``.
"""

from repro.obs.recorder import PhaseRecorder, SPAN_KINDS
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    SCHEMA_PATH,
    build_report,
    load_schema,
    report_json,
    validate_report,
)

__all__ = [
    "PhaseRecorder",
    "SPAN_KINDS",
    "REPORT_SCHEMA_VERSION",
    "SCHEMA_PATH",
    "build_report",
    "load_schema",
    "report_json",
    "validate_report",
]
