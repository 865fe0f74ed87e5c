"""Wire-tag vocabulary shared by every protocol implementation.

Consensus traffic is addressed by hashable *tags* on the simulated
endpoints. All protocols -- the tree/star strategies driven by
:class:`~repro.core.smr.SmrNode`, the Kudzu fast path, and the PBFT clique
baseline -- share one namespace so view-scoped inbox hygiene
(:func:`is_stale_tag`) works uniformly:

- ``("prop", view)``                 -- proposal dissemination;
- ``("vote", view, height, phase)``  -- vote aggregation (``phase`` is the
  :class:`~repro.consensus.vote.Phase` name, a string on the wire);
- ``("qc", view, height, phase)``    -- quorum-certificate dissemination;
- ``("newview", view)``              -- view-change messages to the next
  leader;
- :data:`CLIENT_TX_TAG`              -- client transaction batches to a
  replica's mempool (not view-scoped).

Purging by :func:`is_stale_tag` on view entry drops every protocol message
of strictly older views while leaving client traffic and future-view
messages untouched.
"""

from __future__ import annotations

from typing import Any, Tuple, Union

from repro.consensus.vote import Phase

#: First elements of every protocol-owned tag (the purge namespace).
PROTOCOL_TAG_KINDS = ("prop", "vote", "qc", "newview")

#: Client transaction submissions (see WorkloadHarness); every replica's
#: client pump receives on it.
CLIENT_TX_TAG = ("client", "txs")


def _phase_name(phase: Union[Phase, str]) -> str:
    # ``_name_``, not ``.name``: no enum descriptor call per tag (see
    # :func:`~repro.consensus.vote.vote_value`).
    return phase._name_ if isinstance(phase, Phase) else phase


def prop_tag(view: int) -> Tuple:
    """Round-1 proposal dissemination for ``view``."""
    return ("prop", view)


def vote_tag(view: int, height: int, phase: Union[Phase, str]) -> Tuple:
    """Vote aggregation for one (view, height, phase)."""
    return ("vote", view, height, _phase_name(phase))


def qc_tag(view: int, height: int, phase: Union[Phase, str]) -> Tuple:
    """QC dissemination for one (view, height, phase)."""
    return ("qc", view, height, _phase_name(phase))


def newview_tag(view: int) -> Tuple:
    """New-view message addressed to the leader of ``view``."""
    return ("newview", view)


def is_stale_tag(tag: Any, view: int) -> bool:
    """Purge predicate: protocol tags of strictly older views."""
    return (
        isinstance(tag, tuple)
        and len(tag) >= 2
        and tag[0] in PROTOCOL_TAG_KINDS
        and isinstance(tag[1], int)
        and tag[1] < view
    )
