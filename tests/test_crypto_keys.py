"""Unit tests for the PKI and canonical digests."""

import pytest

from repro.crypto.keys import Pki, canonical_digest
from repro.errors import CryptoError


def test_canonical_digest_deterministic():
    assert canonical_digest(("view", 1, "h")) == canonical_digest(("view", 1, "h"))
    assert canonical_digest("a") != canonical_digest("b")
    assert len(canonical_digest(42)) == 32


def test_keypair_distribution():
    pki = Pki(n=4)
    for node in range(4):
        assert pki.keypair(node).node_id == node
    with pytest.raises(CryptoError):
        pki.keypair(4)


def test_mac_verifies_through_oracle():
    pki = Pki(n=4)
    kp = pki.keypair(2)
    digest = canonical_digest("value")
    mac = kp.mac(digest)
    assert pki.verify_mac(2, digest, mac)


def test_mac_rejects_wrong_signer():
    pki = Pki(n=4)
    digest = canonical_digest("value")
    mac = pki.keypair(2).mac(digest)
    assert not pki.verify_mac(3, digest, mac)


def test_mac_rejects_wrong_value():
    pki = Pki(n=4)
    kp = pki.keypair(2)
    mac = kp.mac(canonical_digest("value"))
    assert not pki.verify_mac(2, canonical_digest("other"), mac)


def test_mac_rejects_unknown_node():
    pki = Pki(n=4)
    assert not pki.verify_mac(99, canonical_digest("v"), b"\x00" * 32)


def test_distinct_nodes_have_distinct_keys():
    pki = Pki(n=10)
    digest = canonical_digest("same")
    macs = {pki.keypair(node).mac(digest) for node in range(10)}
    assert len(macs) == 10


def test_pki_deterministic_by_seed():
    digest = canonical_digest("x")
    a = Pki(n=3, seed=1).keypair(0).mac(digest)
    b = Pki(n=3, seed=1).keypair(0).mac(digest)
    c = Pki(n=3, seed=2).keypair(0).mac(digest)
    assert a == b
    assert a != c


def test_pki_requires_processes():
    with pytest.raises(CryptoError):
        Pki(n=0)
