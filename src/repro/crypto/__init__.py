"""Cryptographic substrate: PKI, signatures, and cryptographic collections.

The paper models vote aggregation as a *cryptographic collection* (§3.3.2):
a secure multiset of ``(process, value)`` tuples supporting ``new``,
``combine`` (⊕), ``has(c, v, t)`` and cardinality, with commutativity,
associativity, idempotency and integrity. Two implementations are provided,
matching the paper's two schemes (§6):

- :class:`~repro.crypto.secp.SecpScheme` -- secp256k1-style individual
  signatures; collections are signature lists (O(n) wire size and
  verification), as in the public HotStuff implementation.
- :class:`~repro.crypto.bls.BlsScheme` -- BLS-style non-interactive
  multisignatures; collections aggregate into constant wire size with O(1)
  aggregate verification, as in Kauri.

Signatures here are HMAC-style constructions over a PKI oracle: they are
**not** secure cryptography, but they preserve exactly what the evaluation
depends on -- unforgeability within the simulation (only a key holder can
produce a share the PKI validates), the collection laws, wire sizes, and
CPU costs (taken from :mod:`repro.crypto.costs` and charged to simulated
CPUs).
"""
