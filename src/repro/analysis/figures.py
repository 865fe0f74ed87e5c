"""The Figure 6 saturation annotation.

Every evaluation figure from 5 to 12 is a checked-in scenario pack under
``scenarios/`` and runs as ``repro scenarios run <pack>``
(:func:`repro.scenarios.run_pack` from Python); its table marks the
saturated data points with :func:`saturation_marker`.
"""

from __future__ import annotations

__all__ = ["RED_CIRCLE", "saturation_marker"]

#: The paper's marker for "data point obtained in a saturated testbed".
RED_CIRCLE = "●"


def saturation_marker(result) -> str:
    """Figure annotation for a data point: the paper's red circle when the
    run's leader CPU saturated over the measurement window, else empty."""
    return RED_CIRCLE if result.cpu_saturated else ""
