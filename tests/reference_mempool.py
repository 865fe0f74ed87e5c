"""Reference oracle for the mempool's bulk admission path.

``MempoolWorkload.admit_batch`` is the only way transactions enter a
mempool. :class:`PerItemMempool` is ``MempoolWorkload`` with the per-item
``admit`` it replaced: one headroom check, one append and one counter update
per transaction, chunks handed to the shared ``_admit_chunk``. The method
body is verbatim from before the change; only the class shell is new.
``tests/test_ingest_fastpath.py`` drives both with the same batches and
requires equal admitted counts, counters, per-client tallies and drain
order.
"""

from typing import Optional

from repro.runtime.clients import MempoolWorkload, Tx, TxChunk


class PerItemMempool(MempoolWorkload):
    """``MempoolWorkload`` that also admits one transaction at a time."""

    def admit(self, txs, now: Optional[float] = None) -> int:
        admitted = 0
        for tx in txs:
            if isinstance(tx, TxChunk):
                admitted += self._admit_chunk(tx)
                continue
            if not isinstance(tx, Tx):
                continue
            self.offered += 1
            if self._has_room():
                self._admit_one(tx)
                admitted += 1
            elif self.policy == "defer":
                self._deferred.append(tx)
                self._deferred_txs += 1
            else:
                self.dropped += 1
                self.dropped_by_client[tx.tx_id[0]] += 1
        return admitted
