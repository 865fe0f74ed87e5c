"""secp256k1-style individual signatures (HotStuff-secp, §1 and §6).

No aggregation: a collection is a set of individual signatures, so quorum
certificates are O(N) on the wire ("the leader has to relay the full set of
signatures to all processes", §1) and verifying one costs O(N) individual
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional

from repro.crypto.collection import Collection
from repro.crypto.costs import CryptoCostModel
from repro.crypto.keys import KeyPair, Pki, canonical_digest
from repro.crypto.signature import SignatureScheme
from repro.errors import CryptoError


@dataclass(frozen=True)
class SecpSignature:
    """One process's signature over one value."""

    signer: int
    value: Any
    mac: bytes

    def digest(self) -> bytes:
        return canonical_digest(self.value)


class SecpCollection(Collection):
    """A set of individual signatures; ⊕ is set union.

    Quorum verification is the hot path (O(N) individual checks, §1):
    ``signers_for`` scans a lazily-built per-value index instead of the
    whole signature set, digests are memoised in
    :func:`~repro.crypto.keys.canonical_digest`, and expected MACs are
    memoised at the :class:`~repro.crypto.keys.Pki`, so re-verifying a
    quorum certificate costs dict lookups, not hashes. The collection is
    immutable, so its cardinality is counted once, on first use.
    """

    __slots__ = ("_pki", "_costs", "_entries", "_valid_cache", "_index",
                 "_card_cache")

    def __init__(
        self,
        pki: Pki,
        costs: CryptoCostModel,
        entries: FrozenSet[SecpSignature] = frozenset(),
    ):
        self._pki = pki
        self._costs = costs
        self._entries = entries
        self._valid_cache: Dict[Any, FrozenSet[int]] = {}
        self._index: Dict[Any, list] = None
        self._card_cache: Optional[int] = None

    # ------------------------------------------------------------------
    def combine(self, other: Collection) -> "SecpCollection":
        if not isinstance(other, SecpCollection):
            raise CryptoError(
                f"cannot combine secp collection with {type(other).__name__}"
            )
        if other._pki is not self._pki:
            raise CryptoError("cannot combine collections from different PKIs")
        if other is self or not other._entries:
            return self
        if not self._entries and other._costs is self._costs:
            return other
        return SecpCollection(self._pki, self._costs, self._entries | other._entries)

    def has(self, value: Any, threshold: int) -> bool:
        return len(self.signers_for(value)) >= threshold

    def _value_index(self) -> Dict[Any, list]:
        index = self._index
        if index is None:
            index = {}
            for sig in self._entries:
                index.setdefault(sig.value, []).append(sig)
            self._index = index
        return index

    def signers_for(self, value: Any) -> FrozenSet[int]:
        cached = self._valid_cache.get(value)
        if cached is not None:
            return cached
        candidates = self._value_index().get(value, ())
        digest = canonical_digest(value)
        valid = frozenset(
            sig.signer
            for sig in candidates
            if self._pki.verify_mac(sig.signer, digest, sig.mac)
        )
        self._valid_cache[value] = valid
        return valid

    def cardinality(self) -> int:
        card = self._card_cache
        if card is None:
            # Distinct (process, value) tuples; duplicate MACs collapse in
            # the set.
            card = len({(sig.signer, sig.value) for sig in self._entries})
            self._card_cache = card
        return card

    def values(self) -> FrozenSet[Any]:
        return frozenset(sig.value for sig in self._entries)

    def wire_size(self) -> int:
        """8-byte framing plus one full signature per tuple."""
        return 8 + self._costs.signature_size * len(self._entries)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, SecpCollection) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SecpCollection({len(self._entries)} sigs)"


class SecpScheme(SignatureScheme):
    """Scheme factory for secp-style signature lists."""

    def new(self, keypair: KeyPair, value: Any) -> SecpCollection:
        sig = SecpSignature(
            signer=keypair.node_id,
            value=value,
            mac=keypair.mac(canonical_digest(value)),
        )
        return SecpCollection(self.pki, self.costs, frozenset([sig]))

    def empty(self) -> SecpCollection:
        return SecpCollection(self.pki, self.costs)
