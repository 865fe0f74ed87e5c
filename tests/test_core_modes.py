"""Unit tests for the mode registry (§6-§7 system variants)."""

import pytest

from repro.core.modes import MODES, mode_spec
from repro.errors import ConfigError


def test_paper_systems_present():
    assert set(MODES) >= {"kauri", "kauri-np", "hotstuff-secp", "hotstuff-bls"}


def test_kauri_is_tree_bls_stretch():
    spec = mode_spec("kauri")
    assert spec.uses_tree
    assert spec.scheme == "bls"
    assert spec.pacing == "stretch"
    assert spec.pipelined


def test_kauri_np_is_sequential():
    spec = mode_spec("kauri-np")
    assert spec.uses_tree
    assert not spec.pipelined


def test_hotstuff_variants_are_star_chained():
    for name in ("hotstuff-secp", "hotstuff-bls"):
        spec = mode_spec(name)
        assert not spec.uses_tree
        assert spec.pacing == "chained"
        assert spec.pipelined
    assert mode_spec("hotstuff-secp").scheme == "secp"
    assert mode_spec("hotstuff-bls").scheme == "bls"


def test_ablation_mode():
    spec = mode_spec("kauri-secp")
    assert spec.uses_tree
    assert spec.scheme == "secp"


def test_pbft_mode():
    spec = mode_spec("pbft")
    assert spec.topology == "clique"
    assert not spec.uses_tree


def test_kudzu_mode():
    spec = mode_spec("kudzu")
    assert spec.topology == "star"
    assert spec.scheme == "bls"
    assert spec.pacing == "chained"
    assert spec.protocol == "kudzu"


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        mode_spec("raft")


def test_unknown_mode_error_lists_registered_names():
    with pytest.raises(ConfigError) as excinfo:
        mode_spec("raft")
    message = str(excinfo.value)
    assert "raft" in message
    for name in sorted(MODES):
        assert name in message


def test_invalid_spec_fields_rejected():
    from repro.core.modes import ModeSpec

    with pytest.raises(ConfigError):
        ModeSpec("x", "ring", "bls", "stretch")
    with pytest.raises(ConfigError):
        ModeSpec("x", "tree", "rsa", "stretch")
    with pytest.raises(ConfigError):
        ModeSpec("x", "tree", "bls", "bursty")
    with pytest.raises(ConfigError):
        ModeSpec("x", "tree", "bls", "stretch", protocol="paxos")


def test_protocol_registry_resolves_every_mode():
    from repro.core.modes import (
        PROTOCOLS,
        protocol_class,
        protocol_for,
        protocol_kind,
    )
    from repro.consensus.protocol import Protocol

    for spec in MODES.values():
        assert spec.protocol in PROTOCOLS
        cls = protocol_class(spec.protocol)
        if protocol_kind(spec.protocol) == "strategy":
            strategy = protocol_for(spec)
            assert isinstance(strategy, Protocol)
            assert isinstance(strategy, cls)
        else:
            with pytest.raises(ConfigError):
                protocol_for(spec)


def test_unknown_protocol_rejected():
    from repro.core.modes import protocol_class, protocol_kind

    with pytest.raises(ConfigError):
        protocol_kind("paxos")
    with pytest.raises(ConfigError):
        protocol_class("paxos")
