"""Unit tests for the secp and bls schemes: sizes, costs, verification."""

import pytest

from repro.crypto.bls import BlsScheme
from repro.crypto.costs import BLS_COSTS, SECP_COSTS, CryptoCostModel, bitmap_size
from repro.crypto.keys import Pki
from repro.crypto.secp import SecpScheme
from repro.crypto.signature import make_scheme
from repro.errors import ConfigError, CryptoError


@pytest.fixture
def pki():
    return Pki(n=10)


def collect(scheme, pki, value, signers):
    coll = scheme.empty()
    for node in signers:
        coll = coll | scheme.new(pki.keypair(node), value)
    return coll


class TestMakeScheme:
    def test_factory(self, pki):
        assert isinstance(make_scheme("secp", pki), SecpScheme)
        assert isinstance(make_scheme("bls", pki), BlsScheme)
        with pytest.raises(CryptoError):
            make_scheme("rsa", pki)

    def test_names(self, pki):
        assert make_scheme("secp", pki).name == "secp256k1"
        assert make_scheme("bls", pki).name == "bls"


class TestQuorumSemantics:
    @pytest.mark.parametrize("kind", ["secp", "bls"])
    def test_threshold_reached(self, pki, kind):
        scheme = make_scheme(kind, pki)
        coll = collect(scheme, pki, "block", range(7))
        assert coll.has("block", 7)
        assert not coll.has("block", 8)
        assert coll.signers_for("block") == frozenset(range(7))
        assert coll.cardinality() == 7

    @pytest.mark.parametrize("kind", ["secp", "bls"])
    def test_mixed_values_counted_separately(self, pki, kind):
        scheme = make_scheme(kind, pki)
        coll = collect(scheme, pki, "a", [0, 1, 2]) | collect(scheme, pki, "b", [3, 4])
        assert coll.signers_for("a") == frozenset({0, 1, 2})
        assert coll.signers_for("b") == frozenset({3, 4})
        assert coll.values() == frozenset({"a", "b"})
        assert coll.cardinality() == 5

    @pytest.mark.parametrize("kind", ["secp", "bls"])
    def test_double_signing_counts_once(self, pki, kind):
        scheme = make_scheme(kind, pki)
        kp = pki.keypair(0)
        coll = scheme.new(kp, "v") | scheme.new(kp, "v")
        assert coll.cardinality() == 1
        assert coll.count_for("v") == 1

    @pytest.mark.parametrize("kind", ["secp", "bls"])
    def test_cross_scheme_combine_rejected(self, pki, kind):
        this = make_scheme(kind, pki)
        other = make_scheme("bls" if kind == "secp" else "secp", pki)
        with pytest.raises(CryptoError):
            this.new(pki.keypair(0), "v").combine(other.new(pki.keypair(1), "v"))

    @pytest.mark.parametrize("kind", ["secp", "bls"])
    def test_cross_pki_combine_rejected(self, pki, kind):
        scheme_a = make_scheme(kind, pki)
        other_pki = Pki(n=10, seed=99)
        scheme_b = make_scheme(kind, other_pki)
        with pytest.raises(CryptoError):
            scheme_a.new(pki.keypair(0), "v") | scheme_b.new(other_pki.keypair(1), "v")


class TestWireSizes:
    def test_secp_grows_linearly(self, pki):
        """§1: the leader relays the full set of signatures."""
        scheme = make_scheme("secp", pki)
        small = collect(scheme, pki, "v", range(2))
        large = collect(scheme, pki, "v", range(8))
        assert large.wire_size() - small.wire_size() == 6 * SECP_COSTS.signature_size

    def test_bls_constant_per_value(self, pki):
        """§3.3.2: aggregates have small O(1) size."""
        scheme = make_scheme("bls", pki)
        small = collect(scheme, pki, "v", range(2))
        large = collect(scheme, pki, "v", range(8))
        assert small.wire_size() == large.wire_size()
        expected = 8 + BLS_COSTS.aggregate_base_size + bitmap_size(10)
        assert large.wire_size() == expected

    def test_bls_smaller_than_secp_for_quorums(self):
        """Why HotStuff-bls beats HotStuff-secp on constrained links (§7.4)."""
        for n, quorum in ((100, 67), (400, 267)):
            pki = Pki(n=n)
            bls = collect(make_scheme("bls", pki), pki, "v", range(quorum)).wire_size()
            secp = collect(make_scheme("secp", pki), pki, "v", range(quorum)).wire_size()
            assert bls < secp / 10
            # §3.3.2: the aggregate stays tiny, the list grows with the quorum
            assert bls < 200
            assert secp > quorum * 60


class TestCpuCosts:
    def test_secp_quorum_verification_linear(self, pki):
        scheme = make_scheme("secp", pki)
        c3 = collect(scheme, pki, "v", range(3))
        c9 = collect(scheme, pki, "v", range(9))
        assert scheme.cost_verify_collection(c9) == pytest.approx(
            3 * scheme.cost_verify_collection(c3)
        )

    def test_bls_quorum_verification_constant(self, pki):
        """§3.3.2: complexity of verifying an aggregated vote is O(1)."""
        scheme = make_scheme("bls", pki)
        c3 = collect(scheme, pki, "v", range(3))
        c9 = collect(scheme, pki, "v", range(9))
        assert scheme.cost_verify_collection(c3) == scheme.cost_verify_collection(c9)

    def test_combine_cost_scales_with_fanout(self, pki):
        """§3.3.2: burden on each internal node is O(m)."""
        scheme = make_scheme("bls", pki)
        assert scheme.cost_combine(10) == pytest.approx(10 * BLS_COSTS.combine_per_input_time)
        assert scheme.cost_combine(0) == 0.0

    def test_bls_ops_slower_than_secp(self):
        """The per-op tradeoff that lets secp win at high bandwidth (§7.4)."""
        assert BLS_COSTS.sign_time > SECP_COSTS.sign_time
        assert BLS_COSTS.verify_time > SECP_COSTS.verify_time

    def test_cost_verify_share(self, pki):
        assert make_scheme("secp", pki).cost_verify_share() == SECP_COSTS.verify_time
        assert make_scheme("bls", pki).cost_verify_share() == BLS_COSTS.aggregate_verify_time


class TestCostModel:
    def test_scaled(self):
        fast = BLS_COSTS.scaled(0.5)
        assert fast.sign_time == pytest.approx(BLS_COSTS.sign_time / 2)
        assert fast.signature_size == BLS_COSTS.signature_size

    def test_validation(self):
        with pytest.raises(ConfigError):
            CryptoCostModel("bad", -1, 0, 0, 0, 64, 0, False)
        with pytest.raises(ConfigError):
            CryptoCostModel("bad", 0, 0, 0, 0, 0, 0, False)
        with pytest.raises(ConfigError):
            BLS_COSTS.scaled(-1)

    def test_bitmap_size(self):
        assert bitmap_size(1) == 1
        assert bitmap_size(8) == 1
        assert bitmap_size(9) == 2
        assert bitmap_size(400) == 50
