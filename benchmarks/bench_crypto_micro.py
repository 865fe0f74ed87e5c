"""Micro-benchmarks of the cryptographic-collection substrate.

Unlike the simulation benches (which measure *simulated* time), these
measure real wall-clock cost of the Python collection operations, and
verify the asymmetry the paper's §3.3.2 argument rests on at the data
-structure level: aggregated collections stay O(1)-sized on the wire and
O(valid-values) to verify, while signature lists grow with the quorum.
"""

import pytest

from repro.consensus.vote import Phase, vote_value
from repro.crypto.keys import Pki
from repro.crypto.signature import make_scheme

N = 400
PKI = Pki(n=N)
QUORUM = 267
VALUE = vote_value(Phase.PREPARE, 0, 1, "block-hash")


def build_quorum(kind):
    scheme = make_scheme(kind, PKI)
    collection = scheme.empty()
    for signer in range(QUORUM):
        collection = collection | scheme.new(PKI.keypair(signer), VALUE)
    return scheme, collection


@pytest.mark.parametrize("kind", ["secp", "bls"])
def test_micro_sign(benchmark, kind):
    scheme = make_scheme(kind, PKI)
    keypair = PKI.keypair(0)
    benchmark(lambda: scheme.new(keypair, VALUE))


@pytest.mark.parametrize("kind", ["secp", "bls"])
def test_micro_combine_fanout(benchmark, kind):
    """One internal node's merge of 20 child contributions (N=400 fanout)."""
    scheme = make_scheme(kind, PKI)
    children = []
    base = 0
    for child in range(20):
        partial = scheme.empty()
        for signer in range(base, base + 13):
            partial = partial | scheme.new(PKI.keypair(signer), VALUE)
        children.append(partial)
        base += 13

    def merge():
        out = scheme.empty()
        for partial in children:
            out = out | partial
        return out

    result = benchmark(merge)
    assert result.count_for(VALUE) == 260


@pytest.mark.parametrize("kind", ["secp", "bls"])
def test_micro_quorum_check(benchmark, kind):
    """Validating a full quorum certificate (cold cache each round)."""
    scheme, collection = build_quorum(kind)

    def check():
        # clear the memoised verification to measure real validation;
        # bitmap-backed bls has no per-collection memo to clear -- its
        # quorum check *is* the popcount being measured.
        cache = getattr(collection, "_valid_cache", None)
        if cache is not None:
            cache.clear()
        return collection.has(VALUE, QUORUM)

    assert benchmark(check)


def test_wire_size_asymmetry():
    _, secp_coll = build_quorum("secp")
    _, bls_coll = build_quorum("bls")
    # §3.3.2: the aggregate's wire size is constant and tiny; the list's is
    # proportional to the quorum
    assert bls_coll.wire_size() < 200
    assert secp_coll.wire_size() > QUORUM * 60
