"""Table 1: qualitative comparison of BFT systems (§1).

Kauri's row is derived from the implementation (resilience, fanout,
reconfiguration bound); the bench asserts the properties the paper's table
claims for it.
"""

from conftest import run_once

from repro.analysis import format_table
from repro.analysis.tables import TABLE1_HEADERS, table1_rows
from repro.config import max_faults
from repro.topology.reconfig import ReconfigurationPolicy


def test_table1_system_comparison(benchmark, save_table):
    rows = run_once(benchmark, lambda: table1_rows(n=100))
    save_table("table1", format_table(TABLE1_HEADERS, rows, title="Table 1 (n=100)"))

    kauri = next(r for r in rows if r[0] == "Kauri")
    # resilience: full f = (n-1)/3, unlike committee/hierarchical systems
    assert f"f={max_faults(100)}" in kauri[3]
    # deterministic finality, unlike committee-based designs
    assert kauri[4] == "yes"
    policy = ReconfigurationPolicy(range(100), height=2)
    assert str(policy.worst_case_reconfigurations(max_faults(100))) in kauri[5]
