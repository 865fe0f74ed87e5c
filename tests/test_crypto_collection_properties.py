"""Property-based tests for the cryptographic-collection laws (§3.3.2).

The paper requires commutativity, associativity, idempotency and integrity
of the ⊕ operator. We verify them with hypothesis over random signer/value
multisets for both schemes, plus adversarial integrity tests with forged
and replayed entries.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import Pki, canonical_digest
from repro.crypto.signature import make_scheme
from repro.crypto.bls import BlsCollection
from repro.crypto.secp import SecpCollection, SecpSignature

N = 8
PKI = Pki(n=N)
SCHEMES = {kind: make_scheme(kind, PKI) for kind in ("secp", "bls")}

# A "tuple spec" is (signer, value); collections are built from lists of them.
tuple_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=N - 1), st.sampled_from("abc")),
    max_size=10,
)
scheme_kinds = st.sampled_from(["secp", "bls"])


def build(kind, specs):
    scheme = SCHEMES[kind]
    coll = scheme.empty()
    for signer, value in specs:
        coll = coll | scheme.new(PKI.keypair(signer), value)
    return coll


@settings(max_examples=60, deadline=None)
@given(scheme_kinds, tuple_specs, tuple_specs)
def test_commutativity(kind, specs_a, specs_b):
    a, b = build(kind, specs_a), build(kind, specs_b)
    assert a | b == b | a


@settings(max_examples=60, deadline=None)
@given(scheme_kinds, tuple_specs, tuple_specs, tuple_specs)
def test_associativity(kind, specs_a, specs_b, specs_c):
    a, b, c = build(kind, specs_a), build(kind, specs_b), build(kind, specs_c)
    assert (a | b) | c == a | (b | c)


@settings(max_examples=60, deadline=None)
@given(scheme_kinds, tuple_specs)
def test_idempotency(kind, specs):
    a = build(kind, specs)
    assert a | a == a


@settings(max_examples=60, deadline=None)
@given(scheme_kinds, tuple_specs)
def test_cardinality_counts_distinct_tuples(kind, specs):
    coll = build(kind, specs)
    assert coll.cardinality() == len(set(specs))


@settings(max_examples=60, deadline=None)
@given(scheme_kinds, tuple_specs, st.sampled_from("abc"), st.integers(1, N))
def test_integrity_has_implies_enough_real_signers(kind, specs, value, threshold):
    """has(c, v, t) => at least t distinct processes executed new((p, v))."""
    coll = build(kind, specs)
    real_signers = {signer for signer, v in specs if v == value}
    if coll.has(value, threshold):
        assert len(real_signers) >= threshold
    # and the converse: everyone who signed is counted
    assert coll.signers_for(value) == frozenset(real_signers)


@settings(max_examples=60, deadline=None)
@given(scheme_kinds, tuple_specs)
def test_empty_is_identity(kind, specs):
    scheme = SCHEMES[kind]
    a = build(kind, specs)
    assert a | scheme.empty() == a
    assert scheme.empty() | a == a
    assert scheme.empty().cardinality() == 0


@settings(max_examples=40, deadline=None)
@given(scheme_kinds, tuple_specs)
def test_combine_order_never_changes_quorum_decisions(kind, specs):
    """Fold order over singleton collections is irrelevant (tree shapes!)."""
    scheme = SCHEMES[kind]
    singles = [scheme.new(PKI.keypair(s), v) for s, v in specs]
    left = functools.reduce(lambda x, y: x | y, singles, scheme.empty())
    right = functools.reduce(lambda x, y: y | x, singles, scheme.empty())
    assert left == right
    for value in "abc":
        assert left.signers_for(value) == right.signers_for(value)


class TestForgeryResistance:
    """Integrity against adversarial entries injected without the keys."""

    def test_secp_forged_mac_does_not_count(self):
        scheme = SCHEMES["secp"]
        forged = SecpCollection(
            PKI,
            scheme.costs,
            frozenset(
                SecpSignature(signer, "block", b"\x00" * 32) for signer in range(6)
            ),
        )
        assert forged.signers_for("block") == frozenset()
        assert not forged.has("block", 1)

    def test_bls_forged_tags_do_not_count(self):
        scheme = SCHEMES["bls"]
        forged = BlsCollection(
            PKI, scheme.costs, {"block": {signer: b"\x00" * 32 for signer in range(6)}}
        )
        assert forged.signers_for("block") == frozenset()
        assert not forged.has("block", 1)

    def test_replayed_mac_for_other_value_does_not_count(self):
        """A valid signature over v must not vouch for v'."""
        scheme = SCHEMES["secp"]
        kp = PKI.keypair(0)
        good_mac = kp.mac(canonical_digest("v"))
        replayed = SecpCollection(
            PKI, scheme.costs, frozenset([SecpSignature(0, "other", good_mac)])
        )
        assert not replayed.has("other", 1)

    def test_bls_bad_tag_cannot_shadow_good_one(self):
        """Combining a forged share after a real one must keep the quorum."""
        scheme = SCHEMES["bls"]
        good = scheme.new(PKI.keypair(0), "v")
        bad = BlsCollection(PKI, scheme.costs, {"v": {0: b"\xff" * 32}})
        assert (good | bad).has("v", 1)
        assert (bad | good).has("v", 1)

    def test_forged_entries_mixed_with_real_quorum(self):
        for kind in ("secp", "bls"):
            scheme = SCHEMES[kind]
            real = build(kind, [(s, "v") for s in range(3)])
            if kind == "secp":
                fake = SecpCollection(
                    PKI,
                    scheme.costs,
                    frozenset(
                        SecpSignature(s, "v", b"\x01" * 32) for s in range(3, 8)
                    ),
                )
            else:
                fake = BlsCollection(
                    PKI, scheme.costs, {"v": {s: b"\x01" * 32 for s in range(3, 8)}}
                )
            merged = real | fake
            assert merged.signers_for("v") == frozenset(range(3))
            assert merged.has("v", 3)
            assert not merged.has("v", 4)
