"""Kauri core: communication abstraction, pipelining, and protocol nodes.

This is the paper's primary contribution (§3-§5):

- :mod:`repro.core.comm` -- ``broadcastMsg``/``waitFor`` on arbitrary
  rooted trees (Algorithms 2 and 3); a star is the height-1 special case,
  which is exactly HotStuff's pattern.
- :mod:`repro.core.perfmodel` -- the §4.3 performance model: sending /
  processing / remaining time, the pipelining stretch, and the expected
  speedup (generates Table 2).
- :mod:`repro.core.smr` -- the protocol-agnostic replica base
  (:class:`SmrNode`): view lifecycle, client pump, commit plumbing, and the
  §5/§6 reconfiguration machinery, parameterized by a pluggable
  :class:`~repro.consensus.protocol.Protocol` strategy. Every replica of a
  deployment, Byzantine behaviours included, is an ``SmrNode`` (or PBFT's
  standalone node) built from one shared ``ReplicaShared``.
- :mod:`repro.core.modes` -- the evaluated systems (Kauri, Kauri-np,
  HotStuff-secp, HotStuff-bls, PBFT, Kudzu; §7) and the ``PROTOCOLS``
  strategy registry.
"""
