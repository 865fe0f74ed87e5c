"""Per-node phase recorder: where does one consensus instance's time go?

§4.3 decomposes instance latency into sending, processing and remaining
time analytically; the recorder captures the *measured* analogue per
instance at each replica:

- ``disseminate`` -- round-1 proposal handling: at the root, the uplink
  serialization of the proposal to its children (the measured ``t_s``); at
  other nodes, receipt + forwarding + validation of the proposal.
- ``aggregate``   -- Algorithm 3 time: waiting for children's partial vote
  aggregates and ⊕-merging them, summed over the three vote phases.
- ``wait``        -- remaining round-trip time: waiting for (and verifying)
  each phase's quorum certificate from the parent.

One :class:`PhaseRecorder` per node, installed by the cluster builder when
observability is enabled; protocol code checks ``recorder is not None``
once per hook, so a disabled run pays a single attribute load per span.
All times are simulated seconds, so recordings are deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

SPAN_KINDS = ("disseminate", "aggregate", "wait")


class PhaseRecorder:
    """Accumulates per-instance phase spans for one replica."""

    __slots__ = ("_instances",)

    def __init__(self) -> None:
        self._instances: Dict[int, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Recording hooks (called from repro.core)
    # ------------------------------------------------------------------
    def _record(self, height: int) -> Dict[str, float]:
        rec = self._instances.get(height)
        if rec is None:
            rec = self._instances[height] = {
                "height": height,
                "start": 0.0,
                "end": None,
                "decided": False,
                "disseminate": 0.0,
                "aggregate": 0.0,
                "wait": 0.0,
            }
        return rec

    def start(self, height: int, time: float) -> None:
        """Instance handler entered (proposal made or received)."""
        self._record(height)["start"] = time

    def disseminate(self, height: int, seconds: float) -> None:
        self._record(height)["disseminate"] += seconds

    def aggregate(self, height: int, seconds: float) -> None:
        self._record(height)["aggregate"] += seconds

    def wait(self, height: int, seconds: float) -> None:
        self._record(height)["wait"] += seconds

    def finish(self, height: int, time: float, decided: bool) -> None:
        rec = self._record(height)
        rec["end"] = time
        rec["decided"] = decided

    # ------------------------------------------------------------------
    # Queries (used by repro.obs.report)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instances)

    def instances(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> List[Dict[str, float]]:
        """Per-instance records whose handler *started* inside the half-open
        window ``[start, end)``, sorted by height."""
        records = []
        for height in sorted(self._instances):
            rec = self._instances[height]
            if start is not None and rec["start"] < start:
                continue
            if end is not None and rec["start"] >= end:
                continue
            records.append(rec)
        return records

    def summary(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> Dict[str, float]:
        """Aggregate span statistics over a window: count, decided count,
        and total/mean per span kind."""
        records = self.instances(start, end)
        out: Dict[str, float] = {
            "instances": len(records),
            "decided": sum(1 for r in records if r["decided"]),
        }
        for kind in SPAN_KINDS:
            total = sum(r[kind] for r in records)
            out[f"{kind}_total"] = total
            out[f"{kind}_mean"] = total / len(records) if records else 0.0
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseRecorder(instances={len(self._instances)})"
