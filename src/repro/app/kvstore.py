"""A replicated key-value store driven by committed blocks.

Clients submit ``set`` operations through the client path
(:class:`~repro.runtime.workload.WorkloadHarness` given a ``registry=``
records one Zipf-keyed write per transaction); operations ride
inside the blocks' modeled payload bytes. Since the simulator accounts
payload *sizes* rather than payload *bytes*, the operation contents live
in an :class:`OpRegistry` shared by construction (the stand-in for block
-body deserialization -- the bytes were charged to every link the block
traversed).

Each replica owns a :class:`KvStateMachine` fed by its node's commit path;
determinism is checked by comparing state digests across replicas after a
run (see ``tests/test_app_kvstore.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.consensus.block import Block
from repro.errors import ConfigError


@dataclass(frozen=True)
class KvOp:
    """One state-machine operation."""

    kind: str  # "set" | "delete"
    key: str
    value: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("set", "delete"):
            raise ConfigError(f"unknown op kind {self.kind!r}")
        if self.kind == "set" and self.value is None:
            raise ConfigError("set requires a value")


class OpRegistry:
    """tx_id -> operation; the modeled block body."""

    def __init__(self):
        self._ops: Dict[Tuple[int, int], KvOp] = {}

    def record(self, tx_id: Tuple[int, int], op: KvOp) -> None:
        self._ops[tx_id] = op

    def get(self, tx_id: Tuple[int, int]) -> Optional[KvOp]:
        return self._ops.get(tx_id)

    def __len__(self) -> int:
        return len(self._ops)


class KvStateMachine:
    """Deterministic KV state, advanced one committed block at a time."""

    def __init__(self, registry: OpRegistry):
        self.registry = registry
        self.state: Dict[str, str] = {}
        self.applied_height = 0
        self.ops_applied = 0
        self.unknown_txs = 0

    def apply_block(self, block: Block) -> None:
        if block.height != self.applied_height + 1:
            raise ConfigError(
                f"out-of-order apply: {block.height} after {self.applied_height}"
            )
        for tx_id in block.tx_ids:
            op = self.registry.get(tx_id)
            if op is None:
                self.unknown_txs += 1
                continue
            if op.kind == "set":
                self.state[op.key] = op.value
            else:
                self.state.pop(op.key, None)
            self.ops_applied += 1
        self.applied_height = block.height

    def replay(self, commit_log: List[Block]) -> None:
        for block in commit_log:
            self.apply_block(block)

    def get(self, key: str) -> Optional[str]:
        return self.state.get(key)

    def digest(self) -> str:
        """Canonical digest of the full state (cross-replica comparison)."""
        canonical = "|".join(
            f"{key}={self.state[key]}" for key in sorted(self.state)
        )
        payload = f"h{self.applied_height}:{canonical}".encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def attach_kv_application(cluster, registry: OpRegistry) -> Dict[int, KvStateMachine]:
    """Give every node a live state machine fed by its own commit path.

    Must be called before ``cluster.start()``. Returns the per-node
    machines (keyed by node id).
    """
    machines: Dict[int, KvStateMachine] = {}
    for node in cluster.nodes:
        machine = KvStateMachine(registry)
        machines[node.node_id] = machine
        node.app = machine
    return machines
