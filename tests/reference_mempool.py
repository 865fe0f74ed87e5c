"""Reference oracle for the mempool's bulk admission path.

``MempoolWorkload.admit_batch`` is the only way transactions enter a
mempool, and it admits whole ``TxChunk`` runs with one headroom
computation each. :class:`PerItemMempool` adds ``admit``, which expands
every run and admits strictly one transaction at a time -- one headroom
check, one 1-count chunk appended and one counter update per transaction,
with its own counter arithmetic. ``tests/test_ingest_fastpath.py`` drives
both with the same batches and requires equal admitted counts, counters,
per-client tallies and drain order.
"""

from typing import Optional

from repro.runtime.clients import MempoolWorkload, TxChunk


class PerItemMempool(MempoolWorkload):
    """``MempoolWorkload`` that also admits one transaction at a time."""

    def admit(self, items, now: Optional[float] = None) -> int:
        admitted = 0
        for item in items:
            if not isinstance(item, TxChunk):
                continue
            for seq in range(item.start_seq, item.start_seq + item.count):
                tx = item._replace(start_seq=seq, count=1)
                self.offered += 1
                if self._has_room():
                    self._pending.append(tx)
                    self._pending_txs += 1
                    self.admitted += 1
                    self.admitted_by_client[tx.client_id] += 1
                    admitted += 1
                elif self.policy == "defer":
                    self._deferred.append(tx)
                    self._deferred_txs += 1
                else:
                    self.dropped += 1
                    self.dropped_by_client[tx.client_id] += 1
        return admitted
