"""Consensus substrate: HotStuff's 4-round protocol state (paper §3.1, §6).

Kauri is deliberately *not* a new consensus algorithm: it replaces
HotStuff's star-based ``broadcastMsg``/``waitFor`` with tree-based
implementations. This package holds everything both share: blocks and the
block store, quorum certificates, the replica safety rules (vote-once,
locking), and the pacemaker driving view changes (§6, §7.10) -- plus the
pluggable :class:`~repro.consensus.protocol.Protocol` strategies consumed
by :class:`~repro.core.smr.SmrNode` (the chained Kauri/HotStuff rules and
the Kudzu optimistic fast path) and the shared wire-tag vocabulary
(:mod:`repro.consensus.tags`).
"""
