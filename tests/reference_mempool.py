"""Reference oracles for the mempool's bulk paths.

``MempoolWorkload.admit_batch`` is the only way transactions enter a
mempool, and it admits whole ``TxChunk`` runs with one headroom
computation each. :class:`PerItemMempool` adds ``admit``, which expands
every run and admits strictly one transaction at a time -- one headroom
check, one 1-count chunk appended and one counter update per transaction,
with its own counter arithmetic. ``tests/test_ingest_fastpath.py`` drives
both with the same batches and requires equal admitted counts, counters,
per-client tallies and drain order.

``MempoolWorkload.next_fill`` hands a block the runs it drains, whole or
split. :class:`PerTxFillMempool` adds ``next_fill_ids``, which drains one
transaction at a time under the same two budgets and returns the block's
transaction ids as the proposer did before blocks carried runs.
"""

from typing import List, Optional, Tuple

from repro.runtime.clients import MempoolWorkload, TxChunk


def expand_runs(runs) -> Tuple[Tuple[int, int], ...]:
    """The ``(client_id, seq)`` ids of a block's runs, in order."""
    return tuple(tx_id for run in runs for tx_id in run.tx_ids())


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


class PerTxFillMempool(MempoolWorkload):
    """``MempoolWorkload`` that also fills a block one transaction at a
    time: ``next_fill_ids`` returns ``(payload_size, num_txs, tx_ids)``."""

    def next_fill_ids(self, now: float) -> Tuple[int, int, Tuple]:
        ids: List[Tuple[int, int]] = []
        payload = 0
        budget = self.config.txs_per_block
        while self._pending and len(ids) < budget:
            head = self._pending[0]
            if payload + head.size > self.config.block_size:
                break
            ids.append((head.client_id, head.start_seq))
            payload += head.size
            self._pending_txs -= 1
            if head.count == 1:
                self._pending.popleft()
            else:
                self._pending[0] = head._replace(
                    start_seq=head.start_seq + 1, count=head.count - 1
                )
        # Release deferred transactions one at a time, in arrival order.
        while self._deferred and self._has_room():
            head = self._deferred[0]
            tx = head._replace(count=1)
            if head.count == 1:
                self._deferred.popleft()
            else:
                self._deferred[0] = head._replace(
                    start_seq=head.start_seq + 1, count=head.count - 1
                )
            self._deferred_txs -= 1
            self._pending.append(tx)
            self._pending_txs += 1
            self.admitted += 1
            self.admitted_by_client[tx.client_id] += 1
        return payload, len(ids), tuple(ids)
