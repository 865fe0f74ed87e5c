"""Tests for the analysis layer: tables, formatting, Table 1's measured
message complexity, adaptive horizons and Figure 12.

Figure 12 runs here as a miniature N=13 pack with leader-placed faults;
the full-scale reproduction is ``repro scenarios run fig12``.
"""

import pytest

from repro.analysis import format_table, table1_rows, table2_rows
from repro.analysis.tables import TABLE1_HEADERS, TABLE2_HEADERS
from repro.config import GLOBAL, KB, NATIONAL, max_faults
from repro.runtime.cluster import Cluster
from repro.runtime.horizon import adaptive_duration
from repro.scenarios import PackError, check_rows, compile_pack, parse_pack, run_pack
from repro.topology.reconfig import ReconfigurationPolicy


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(("A", "Blong"), [(1, 2.5), ("xx", 10000.0)], title="T")
        lines = text.split("\n")
        assert lines[0] == "T"
        assert "A" in lines[1] and "Blong" in lines[1]
        assert "10,000" in text
        assert "2.500" in text

    def test_no_title(self):
        text = format_table(("A",), [(1,)])
        assert text.startswith("A")


class TestTables:
    def test_table1_structure(self):
        rows = table1_rows()
        assert len(rows) == 6
        assert all(len(row) == len(TABLE1_HEADERS) for row in rows)
        systems = [row[0] for row in rows]
        assert "Kauri" in systems and "HotStuff" in systems and "PBFT" in systems

    def test_table2_structure(self):
        rows = table2_rows()
        assert all(len(row) == len(TABLE2_HEADERS) for row in rows)
        # both systems for every configured scenario
        assert sum(1 for r in rows if r[1] == "kauri") == len(rows) // 2

    def test_table2_custom_grid(self):
        rows = table2_rows(configs=[("national", NATIONAL, 100)])
        assert len(rows) == 2

    def test_table1_kauri_row(self):
        """Kauri's row: the full f = (n-1)/3 resilience, deterministic
        finality (unlike committee designs) and its policy's bound."""
        kauri = next(r for r in table1_rows(n=100) if r[0] == "Kauri")
        assert f"f={max_faults(100)}" in kauri[3]
        assert kauri[4] == "yes"
        policy = ReconfigurationPolicy(range(100), height=2)
        assert str(policy.worst_case_reconfigurations(max_faults(100))) in kauri[5]

    def test_table2_paper_values(self):
        rows = table2_rows()

        def row(scenario, system, n):
            return next(r for r in rows if r[:3] == (scenario, system, n))

        # §4.3: max speedup 19.95 at N=400, fanout 20
        assert abs(row("global", "kauri", 400)[7] - 19.95) < 0.1
        # Kauri's sending time is an order of magnitude below HotStuff's
        for scenario, n in (("national", 100), ("regional", 100), ("global", 400)):
            assert row(scenario, "kauri", n)[4] < row(scenario, "hotstuff-secp", n)[4] / 5
        # the expected speedup grows with N in the global scenario (§7.4)
        speedups = [row("global", "kauri", n)[8] for n in (100, 200, 400)]
        assert speedups == sorted(speedups)
        assert speedups[-1] > 15  # paper: ~30 predicted, 28.2 observed


@pytest.fixture(scope="module")
def per_block():
    """{(n, mode): (messages, root NIC bytes)} per committed block, from
    one national run per size and topology: clique, star and tree."""
    rows = {}
    for n in (7, 16, 31):
        for mode in ("pbft", "hotstuff-secp", "kauri"):
            cluster = Cluster(n=n, mode=mode, scenario="national")
            cluster.start()
            cluster.run(duration=60.0, max_commits=40)
            blocks = max(1, cluster.metrics.committed_blocks)
            root = cluster.policy.leader_of(0)
            rows[(n, mode)] = (
                cluster.network.messages_sent / blocks,
                cluster.network.nic(root).bytes_sent / blocks,
            )
    return rows


class TestMessageComplexity:
    """Table 1's communication patterns, measured per committed block:
    PBFT's clique is O(n^2), HotStuff's star and Kauri's tree O(n) in
    total, and the tree bounds the leader's bytes by its fanout."""

    def test_messages_grow_quadratically_only_for_the_clique(self, per_block):
        def msgs(mode, n):
            return per_block[(n, mode)][0]

        for lo, hi in ((7, 16), (16, 31)):
            scale = hi / lo
            assert msgs("pbft", hi) / msgs("pbft", lo) > 1.4 * scale
            assert msgs("hotstuff-secp", hi) / msgs("hotstuff-secp", lo) < 1.6 * scale
            assert msgs("kauri", hi) / msgs("kauri", lo) < 1.6 * scale

    def test_tree_bounds_the_leaders_bytes_by_its_fanout(self, per_block):
        def leader_kb(mode, n):
            return per_block[(n, mode)][1]

        # HotStuff's leader ships ~(N-1)/fanout times more bytes than Kauri's
        for n in (16, 31):
            assert leader_kb("hotstuff-secp", n) > 2 * leader_kb("kauri", n)


class TestAdaptiveDuration:
    def test_slow_configs_get_longer_windows(self):
        fast = adaptive_duration("kauri", 100, NATIONAL, 250 * KB)
        slow = adaptive_duration("hotstuff-secp", 400, GLOBAL, 250 * KB)
        assert slow > fast
        assert adaptive_duration("kauri", 100, NATIONAL, 250 * KB, scale=0.5) == (
            pytest.approx(fast * 0.5)
        )


def fig12_pack(faults, duration, *rows):
    """Figure 12 in miniature: kauri, N=13 (f=4, 3 bins), national, one
    cell measured over the last 40% of the run."""
    return parse_pack({
        "pack": {"name": "fig12-small", "title": "t", "schema": 1},
        "defaults": {"mode": "kauri", "scenario": "national", "n": 13,
                     "duration": duration, "warmup_fraction": 0.6},
        "grid": [{"axes": {"fault": [{"label": "faulty", "faults": faults}]}}],
        "expect": [{"of": {"fault": "faulty"}, **row} for row in rows],
    })


class TestFigureGeneratorsSmoke:
    """Miniature runs: structure and basic sanity only."""

    def test_fig12_case_validation(self):
        pack = fig12_pack([{"meteor-strike": 1, "at": 10.0}], 30.0)
        with pytest.raises(PackError, match="unknown key 'meteor-strike'"):
            compile_pack(pack)

    def test_fig12_leader_case_small(self):
        # One reconfiguration, to the next bin's tree (1 < m = 3) ...
        pack = fig12_pack([{"leaders": 1, "at": 10.0}], 30.0,
                          {"kind": "between", "metric": "max_view", "lo": 1, "hi": 1})
        grid, (result,) = run_pack(pack, jobs=1)
        assert len(grid.specs[0].crashes) == 1
        assert [v.status for v in check_rows(grid, [result])] == ["pass"]
        # ... which commits again.
        assert result.throughput_txs > 0

    def test_fig12_f_leaders_small(self):
        # f faults walk past every bin to a star (view >= m = 3) within
        # m + f + 1 = 8 reconfigurations, and the star commits.
        pack = fig12_pack([{"leaders": 4, "at": 10.0}], 200.0,
                          {"kind": "between", "metric": "max_view", "lo": 3, "hi": 8})
        grid, (result,) = run_pack(pack, jobs=1)
        assert len(grid.specs[0].crashes) == 4  # f for n=13
        assert [v.status for v in check_rows(grid, [result])] == ["pass"]
        assert result.throughput_txs > 0
