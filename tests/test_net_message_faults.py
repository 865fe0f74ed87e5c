"""Unit tests for Message and FaultInjector details not covered elsewhere."""

import pytest

from repro.net.faults import FaultInjector
from repro.net.message import Message
from repro.sim.engine import Simulator


class TestMessage:
    def test_latency_none_in_flight(self):
        msg = Message(src=0, dst=1, tag="t", payload=None, size=10, sent_at=1.0)
        assert msg.latency is None
        msg.delivered_at = 3.5
        assert msg.latency == pytest.approx(2.5)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(src=0, dst=1, tag="t", payload=None, size=-1)


class TestFaultInjector:
    def test_crash_and_recover(self):
        sim = Simulator()
        faults = FaultInjector(sim)
        faults.crash(3)
        assert faults.is_crashed(3)
        faults.recover(3)
        assert not faults.is_crashed(3)

    def test_crash_at_schedules(self):
        sim = Simulator()
        faults = FaultInjector(sim)
        faults.crash_at(2, 5.0)
        assert not faults.is_crashed(2)
        sim.run(until=6.0)
        assert faults.is_crashed(2)

    def test_byzantine_marking(self):
        sim = Simulator()
        faults = FaultInjector(sim)
        faults.mark_byzantine(1)
        faults.crash(2)
        assert faults.is_byzantine(1)
        assert faults.faulty == {1, 2}

    def test_omission_heal(self):
        sim = Simulator()
        faults = FaultInjector(sim)
        faults.omit_edge(0, 1)
        msg = Message(src=0, dst=1, tag="t", payload=None, size=1)
        assert faults.should_drop(msg)
        faults.heal_edge(0, 1)
        assert not faults.should_drop(msg)

    def test_drop_counts(self):
        sim = Simulator()
        faults = FaultInjector(sim)
        faults.crash(0)
        msg = Message(src=0, dst=1, tag="t", payload=None, size=1)
        faults.should_drop(msg)
        faults.should_drop(msg)
        assert faults.dropped_messages == 2

    def test_negative_injected_delay_rejected(self):
        sim = Simulator()
        faults = FaultInjector(sim)
        faults.set_delay_fn(lambda m: -1.0)
        msg = Message(src=0, dst=1, tag="t", payload=None, size=1)
        with pytest.raises(ValueError):
            faults.extra_delay(msg)

    def test_predicate_reset(self):
        sim = Simulator()
        faults = FaultInjector(sim)
        msg = Message(src=0, dst=1, tag="t", payload=None, size=1)
        faults.set_drop_predicate(lambda m: True)
        assert faults.should_drop(msg)
        faults.set_drop_predicate(None)
        assert not faults.should_drop(msg)
