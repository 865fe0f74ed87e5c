"""Application layer: state machine replication on top of the chain.

Consensus orders blocks; an application gives the order meaning. This
package provides a replicated key-value store
(:mod:`repro.app.kvstore`) demonstrating the classical SMR contract:
every correct replica applies the same committed operations in the same
order and therefore reaches the same state -- verified byte-for-byte in
the tests via state digests.
"""

from repro.app.kvstore import (
    KvOp,
    KvStateMachine,
    OpRegistry,
    attach_kv_application,
)

__all__ = [
    "KvOp",
    "OpRegistry",
    "KvStateMachine",
    "attach_kv_application",
]
