"""Unit tests for the pacemaker (§6 timeouts, §7.10 schedule)."""

import pytest

from repro.consensus.pacemaker import Pacemaker
from repro.errors import ConfigError
from repro.sim.engine import Simulator


def make(sim, base=1.0, cap=10.0):
    fires = []
    pacemaker = Pacemaker(sim, base, lambda: fires.append(sim.now), cap=cap)
    return pacemaker, fires


def test_fires_after_base_timeout():
    sim = Simulator()
    pacemaker, fires = make(sim)
    pacemaker.start_view()
    sim.run(until=5.0)
    assert fires == [1.0]
    assert pacemaker.timeouts_fired == 1


def test_progress_resets_timer():
    sim = Simulator()
    pacemaker, fires = make(sim)
    pacemaker.start_view()
    sim.schedule(0.8, pacemaker.record_progress)
    sim.schedule(1.6, pacemaker.record_progress)
    sim.run(until=2.0)
    assert fires == []
    sim.run(until=3.0)
    assert fires == [pytest.approx(2.6)]


def test_doubling_schedule_matches_paper():
    """§7.10: 1.7, 3.4, 6.8, then capped at 10."""
    sim = Simulator()
    pacemaker, _ = make(sim, base=1.7, cap=10.0)
    observed = []
    for failures in range(6):
        pacemaker.consecutive_failures = failures
        observed.append(pacemaker.current_timeout())
    assert observed[:3] == [pytest.approx(1.7), pytest.approx(3.4), pytest.approx(6.8)]
    assert all(t == pytest.approx(6.8) for t in observed[3:])
    # after the doublings are exhausted the value stays at base * 4 (< cap);
    # with a larger base the cap binds:
    pacemaker2, _ = make(sim, base=4.0, cap=10.0)
    pacemaker2.consecutive_failures = 5
    assert pacemaker2.current_timeout() == pytest.approx(10.0)


def test_consecutive_failures_increase_on_fire():
    sim = Simulator()
    pacemaker, fires = make(sim, base=1.0, cap=100.0)

    def restart():
        pacemaker.start_view()

    pacemaker._on_timeout = lambda: (fires.append(sim.now), restart())
    pacemaker.start_view()
    sim.run(until=10.0)
    # fire at 1 (next timeout 2), at 3 (next 4), at 7 (next 4, capped by
    # doublings), at 11 > horizon
    assert fires == [pytest.approx(1.0), pytest.approx(3.0), pytest.approx(7.0)]


def test_progress_resets_failures():
    sim = Simulator()
    pacemaker, _ = make(sim)
    pacemaker.consecutive_failures = 2
    pacemaker.record_progress()
    assert pacemaker.consecutive_failures == 0
    assert pacemaker.current_timeout() == pytest.approx(1.0)


def test_cap_never_undercuts_base():
    sim = Simulator()
    pacemaker, _ = make(sim, base=20.0, cap=10.0)
    assert pacemaker.current_timeout() == pytest.approx(20.0)


def test_stop_disarms():
    sim = Simulator()
    pacemaker, fires = make(sim)
    pacemaker.start_view()
    pacemaker.stop()
    sim.run(until=5.0)
    assert fires == []
    assert not pacemaker.armed


def test_invalid_base_rejected():
    sim = Simulator()
    with pytest.raises(ConfigError):
        Pacemaker(sim, 0.0, lambda: None)
