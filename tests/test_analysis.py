"""Tests for the analysis layer: tables, formatting, adaptive horizons and
Figure 12.

Figure 12 runs at miniature scale here; the full-scale paper
reproduction lives in benchmarks/.
"""

import pytest

from repro.analysis import (
    fig12_reconfiguration,
    format_table,
    table1_rows,
    table2_rows,
)
from repro.analysis.tables import TABLE1_HEADERS, TABLE2_HEADERS
from repro.config import GLOBAL, KB, NATIONAL, max_faults
from repro.runtime.horizon import adaptive_duration
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


class TestAdaptiveDuration:
    def test_slow_configs_get_longer_windows(self):
        fast = adaptive_duration("kauri", 100, NATIONAL, 250 * KB)
        slow = adaptive_duration("hotstuff-secp", 400, GLOBAL, 250 * KB)
        assert slow > fast
        assert adaptive_duration("kauri", 100, NATIONAL, 250 * KB, scale=0.5) == (
            pytest.approx(fast * 0.5)
        )


class TestFigureGeneratorsSmoke:
    """Miniature runs: structure and basic sanity only."""

    def test_fig12_case_validation(self):
        with pytest.raises(ValueError):
            fig12_reconfiguration("meteor-strike", n=13, scenario="national")

    def test_fig12_leader_case_small(self):
        run = fig12_reconfiguration(
            "leader", n=13, scenario="national", fault_time=10.0, duration=30.0
        )
        assert run.max_view == 1
        assert len(run.faulty) == 1
        assert run.recovery_gap is not None
        assert not run.final_is_star

    def test_fig12_f_leaders_small(self):
        run = fig12_reconfiguration(
            "f-leaders", n=13, scenario="national", fault_time=10.0, duration=200.0
        )
        assert len(run.faulty) == 4  # f for n=13
        assert run.max_view > 1
        assert run.recovery_gap is not None
