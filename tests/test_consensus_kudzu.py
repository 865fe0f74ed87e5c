"""Kudzu fast path: quorum arithmetic, fast commits, and the fallback."""

import pytest

from repro.config import max_faults, quorum_size
from repro.consensus.kudzu import KudzuProtocol, fast_quorum_size
from repro.consensus.safety import SafetyRules
from repro.consensus.block import BlockStore
from repro.consensus.vote import Phase, QuorumCert
from repro.runtime.cluster import Cluster
from repro.runtime.experiment import run_experiment


# ---------------------------------------------------------------------------
# Fast-quorum arithmetic
# ---------------------------------------------------------------------------
def test_fast_quorum_known_values():
    # ⌈(n + f + 1) / 2⌉ with f = ⌊(n - 1) / 3⌋
    assert fast_quorum_size(4) == 3
    assert fast_quorum_size(7) == 5
    assert fast_quorum_size(9) == 6
    assert fast_quorum_size(10) == 7
    assert fast_quorum_size(13) == 9
    assert fast_quorum_size(31) == 21
    assert fast_quorum_size(100) == 67


@pytest.mark.parametrize("n", range(4, 200))
def test_fast_quorum_invariants(n: int):
    f = max_faults(n)
    fq = fast_quorum_size(n)
    # Definition: the ceiling of (n + f + 1) / 2.
    assert fq == -((n + f + 1) // -2)
    # Never larger than the regular quorum (n - f), so a regular quorum
    # always contains a fast quorum.
    assert fq <= quorum_size(n)
    # Two fast quorums intersect in >= f+1 processes: at least one honest
    # process is in both, so conflicting fast certificates cannot form.
    assert 2 * fq - n >= f + 1
    # A fast quorum and a regular quorum intersect in >= 1 honest process,
    # so the slow path cannot contradict a fast commit.
    assert fq + quorum_size(n) - n >= f + 1


# ---------------------------------------------------------------------------
# Safety bookkeeping for fast certificates
# ---------------------------------------------------------------------------
def test_fast_qc_subsumes_prepare_and_lock():
    rules = SafetyRules(BlockStore())
    # The collection is irrelevant to observe_qc -- any non-None stand-in
    # makes the certificate non-genesis.
    fast = QuorumCert(Phase.FAST, 3, 7, "deadbeef", object())
    rules.observe_qc(fast)
    assert rules.high_prepare_qc is fast
    assert rules.locked_qc is fast
    # Older fast certificates do not regress the state.
    older = QuorumCert(Phase.FAST, 2, 5, "cafe", object())
    rules.observe_qc(older)
    assert rules.high_prepare_qc is fast
    assert rules.locked_qc is fast


def test_kudzu_verify_justify_accepts_fast_and_prepare():
    class FakeQc:
        def __init__(self, phase, ok_at):
            self.phase = phase
            self._ok_at = ok_at

        def verify(self, threshold):
            return threshold == self._ok_at

    class FakeNode:
        n = 9
        quorum = quorum_size(9)

    protocol = KudzuProtocol()
    node = FakeNode()
    assert protocol.verify_justify(node, FakeQc(Phase.FAST, fast_quorum_size(9)))
    assert protocol.verify_justify(node, FakeQc(Phase.PREPARE, quorum_size(9)))
    assert not protocol.verify_justify(node, FakeQc(Phase.COMMIT, quorum_size(9)))


# ---------------------------------------------------------------------------
# End-to-end: the fast path commits, agreement holds
# ---------------------------------------------------------------------------
def test_kudzu_commits_on_fast_path():
    result = run_experiment(
        mode="kudzu", scenario="national", n=7, duration=10.0,
        max_commits=20, seed=0,
    )
    assert result.committed_blocks >= 20
    assert result.view_changes == 0
    assert result.instance_failures == 0
    # Every commit at every node went through the single-round fast path.
    assert result.fast_commits > 0
    assert result.fast_fallbacks == 0


def test_kudzu_determinism():
    runs = [
        run_experiment(mode="kudzu", scenario="national", n=7,
                       duration=5.0, max_commits=10, seed=0)
        for _ in range(2)
    ]
    assert runs[0].committed_blocks == runs[1].committed_blocks
    assert runs[0].fast_commits == runs[1].fast_commits
    assert runs[0].throughput_txs == runs[1].throughput_txs


# ---------------------------------------------------------------------------
# Fallback transition: fast quorum unreachable -> chained slow path
# ---------------------------------------------------------------------------
class _NeverFast(KudzuProtocol):
    """Kudzu with an unreachable fast quorum: every instance must fall
    back to the chained slow path."""

    def fast_quorum(self, node) -> int:
        return node.n + 1


def test_kudzu_falls_back_to_slow_path_and_still_commits():
    cluster = Cluster(n=7, mode="kudzu", scenario="national", seed=0)
    for node in cluster.nodes:
        node.protocol = _NeverFast()
    cluster.start()
    cluster.run(duration=10.0, max_commits=10)
    fast = sum(node.fast_commits for node in cluster.nodes)
    fallbacks = sum(node.fast_fallbacks for node in cluster.nodes)
    assert fast == 0
    assert fallbacks > 0
    # The slow path still commits and keeps agreement.
    assert max(node.committed_height for node in cluster.nodes) >= 10


def test_kudzu_report_has_fast_path_section_and_classics_do_not():
    kudzu = run_experiment(
        mode="kudzu", scenario="national", n=7, duration=5.0,
        max_commits=10, seed=0, observability=True,
    )
    assert kudzu.report["fast_path"]["fast_commits"] == kudzu.fast_commits
    assert kudzu.report["fast_path"]["fast_fallbacks"] == kudzu.fast_fallbacks
    kauri = run_experiment(
        mode="kauri", scenario="national", n=7, duration=5.0,
        max_commits=10, seed=0, observability=True,
    )
    assert "fast_path" not in kauri.report
    assert kauri.fast_commits == 0
