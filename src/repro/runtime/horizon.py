"""Adaptive simulation horizons and the §4.3 model of one deployment.

Every scenario pack cell with ``duration = "adaptive"`` sizes its
simulated horizon from the §4.3 performance model: slow configurations
need longer windows to commit a meaningful number of blocks, fast ones are
capped by ``max_commits``. This module is the single home of that rule so
every grid lowers to *byte-identical*
:class:`~repro.runtime.sweep.ExperimentSpec` durations. :func:`model_for`
is also the prediction a pack's ``model_ratio`` rows divide by.
"""

from __future__ import annotations

from repro.config import NetworkParams, default_root_fanout
from repro.core.modes import mode_spec
from repro.core.perfmodel import PerfModel
from repro.crypto.costs import BLS_COSTS, SECP_COSTS

_COSTS = {"bls": BLS_COSTS, "secp": SECP_COSTS}


def model_for(
    mode: str,
    n: int,
    params: NetworkParams,
    block_size: int,
    height: int = 2,
) -> PerfModel:
    """The §4.3 performance model for one deployment configuration."""
    spec = mode_spec(mode)
    costs = _COSTS[spec.scheme]
    if spec.uses_tree:
        fanout = default_root_fanout(n, height)
        return PerfModel.for_tree_shape(n, height, fanout, params, block_size, costs)
    return PerfModel.for_star(n, params, block_size, costs)


def adaptive_duration(
    mode: str,
    n: int,
    params: NetworkParams,
    block_size: int,
    height: int = 2,
    min_duration: float = 30.0,
    instances: float = 8.0,
    scale: float = 1.0,
) -> float:
    """Simulated horizon long enough for ``instances`` full instances."""
    model = model_for(mode, n, params, block_size, height)
    return scale * max(min_duration, instances * model.instance_latency())
