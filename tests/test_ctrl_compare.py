"""Tests for the control-plane voter (repro.ctrl.compare).

Behaviour shared with the data-plane compare (the quorum-voter
contract) is tested against both in ``test_voter_contract.py``.
"""

import pytest

from repro.core.alarms import (
    ALARM_BRANCH_QUARANTINED,
    ALARM_BRANCH_READMITTED,
    ALARM_COPY_REWRITTEN,
    ALARM_MINORITY_DIVERGENCE,
    ALARM_ROUTER_UNAVAILABLE,
)
from repro.ctrl.compare import ControlCompare, ControlCompareConfig
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.messages import FLOWMOD_ADD, FlowMod, PacketOut
from repro.net.addresses import MacAddress
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

DPID = 7


def mod(priority=10, port=2, mac_index=2):
    return FlowMod(
        command=FLOWMOD_ADD,
        match=Match(dl_dst=MacAddress.from_index(mac_index)),
        actions=[Output(port)],
        priority=priority,
    )


class Harness:
    def __init__(self, **config_kwargs):
        self.sim = Simulator()
        config_kwargs.setdefault("k", 3)
        config_kwargs.setdefault("vote_timeout", 0.01)
        self.compare = ControlCompare(
            self.sim, ControlCompareConfig(**config_kwargs), name="cc"
        )
        self.released = []
        self.compare.register_switch(DPID, self.released.append)

    def submit(self, replica, message, tainted=False):
        self.compare.submit(replica, DPID, message, tainted=tainted)

    def alarms(self, kind=None):
        alarms = self.compare.alarms.alarms
        if kind is None:
            return alarms
        return [a for a in alarms if a.kind == kind]


class TestRelease:
    def test_single_replica_never_reaches_quorum(self):
        h = Harness()
        h.submit(0, mod())
        h.sim.run(until=0.05)
        assert h.released == []
        assert h.compare.stats.blocked_no_quorum == 1

    def test_divergent_copies_vote_separately(self):
        h = Harness()
        h.submit(0, mod(port=2))
        h.submit(1, mod(port=9999))  # the lie
        h.submit(2, mod(port=2))
        assert len(h.released) == 1
        assert h.released[0].actions[0].port == 2

    def test_released_message_is_the_voted_object(self):
        """What goes out is the copy whose arrival completed the quorum,
        digested in that call — a PacketOut as it is, a FlowMod with a
        match of its own — never the stored first copy, which its replica
        still holds."""
        h = Harness()
        first, second = mod(), mod()
        h.submit(0, first)
        h.submit(1, second)
        (released,) = h.released
        assert released == second and released.actions is second.actions
        assert released.match is not second.match
        assert released.match is not first.match
        stored = PacketOut(packet=None, actions=[Output(1)], buffer_id=3)
        completing = PacketOut(packet=None, actions=[Output(1)], buffer_id=3)
        h.submit(0, stored)
        h.submit(1, completing)
        assert h.released[1] is completing

    def test_quorum_shrink_releases_the_stored_copy_only_unchanged(self):
        """A shrink completes a pending vote with no copy arriving: the
        stored copy goes out if it still encodes to the voted bytes, and is
        refused with an alarm naming its replica if they moved."""
        h = Harness()
        kept, rewritten = mod(mac_index=2), mod(mac_index=3)
        h.submit(0, kept)
        h.submit(0, rewritten)
        rewritten.match.dl_dst = MacAddress.from_index(4)
        h.compare.quarantine_branch(1, reason="test")
        h.compare.quarantine_branch(2, reason="test")  # quorum 2 -> 1
        assert h.released == [kept]
        (alarm,) = h.alarms(ALARM_COPY_REWRITTEN)
        assert (alarm.branch, alarm.details["message"]) == (0, "FlowMod")

    def test_messages_for_different_switches_vote_separately(self):
        h = Harness()
        other = []
        h.compare.register_switch(DPID + 1, other.append)
        h.submit(0, mod())
        h.compare.submit(1, DPID + 1, mod())
        assert h.released == [] and other == []

    def test_quorum_override(self):
        h = Harness(k=3, quorum=3)
        h.submit(0, mod())
        h.submit(1, mod())
        assert h.released == []
        h.submit(2, mod())
        assert len(h.released) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControlCompareConfig(k=0).validate()
        with pytest.raises(ValueError):
            ControlCompareConfig(k=3, quorum=4).validate()
        with pytest.raises(ValueError):
            ControlCompareConfig(vote_timeout=0.0).validate()


class TestDivergenceAlarm:
    def test_unconfirmed_minority_raises_divergence_alarm(self):
        h = Harness(divergence_threshold=1)
        h.submit(0, mod())
        h.submit(1, mod(port=9999))
        h.submit(2, mod())
        h.sim.run(until=0.05)  # liar's entry expires unreleased
        alarms = h.alarms(ALARM_MINORITY_DIVERGENCE)
        assert [a.branch for a in alarms] == [1]

    def test_divergence_threshold_requires_strikes(self):
        h = Harness(divergence_threshold=2)
        h.submit(0, mod())
        h.submit(1, mod(port=9999))
        h.submit(2, mod())
        h.sim.run(until=0.05)
        assert h.alarms(ALARM_MINORITY_DIVERGENCE) == []
        h.submit(0, mod(mac_index=3))
        h.submit(1, mod(mac_index=3, port=9999))
        h.submit(2, mod(mac_index=3))
        h.sim.run(until=0.1)
        assert [a.branch for a in h.alarms(ALARM_MINORITY_DIVERGENCE)] == [1]

    def test_divergence_alarm_not_repeated(self):
        h = Harness(divergence_threshold=1)
        for round_ in range(4):
            h.submit(0, mod(mac_index=round_ + 2))
            h.submit(1, mod(mac_index=round_ + 2, port=9999))
            h.submit(2, mod(mac_index=round_ + 2))
        h.sim.run(until=0.05)
        assert len(h.alarms(ALARM_MINORITY_DIVERGENCE)) == 1

    def test_blocked_metric_reasons(self):
        h = Harness()
        h.submit(1, mod(port=9999))  # counted minority -> no_quorum
        h.compare.quarantine_branch(2, reason="test")
        h.submit(2, mod(mac_index=5))  # probation only -> quarantined
        h.sim.run(until=0.05)
        assert h.compare.stats.blocked_no_quorum == 1
        assert h.compare.stats.blocked_quarantined == 1
        assert h.compare.stats.blocked == 2


class TestTaint:
    def test_stale_eviction_keeps_the_fresh_decisions_taint_and_trace(self):
        """Regression: a tainted copy that stale-evicts an expired entry
        under its own key starts a fresh decision; finalising the old one
        must not discard the fresh one's taint mark and trace id."""
        sim = Simulator()
        bus = TraceBus(retain=True)
        compare = ControlCompare(
            sim, ControlCompareConfig(k=3, vote_timeout=0.01), trace_bus=bus
        )
        compare.register_switch(DPID, lambda message: None)
        lie = mod(port=9999)
        sim.schedule_at(0.001, lambda: compare.submit(0, DPID, mod()))  # starts the sweeper
        sim.schedule_at(
            0.005, lambda: compare.submit(0, DPID, lie, tainted=True, trace=41)
        )
        # 16 ms: past the lie's deadline, before the sweeper's next tick
        sim.schedule_at(
            0.016, lambda: compare.submit(0, DPID, lie, tainted=True, trace=42)
        )
        sim.schedule_at(0.017, lambda: compare.submit(1, DPID, lie))
        sim.run(until=0.018)
        assert compare.stats.released == 1
        assert compare.stats.malicious_released == 1
        (release,) = bus.select(topic="ctrl.release")
        assert release.data["trace"] == 42


class TestMissingReplica:
    def test_silent_replica_alarms_after_threshold(self):
        h = Harness(miss_threshold=3)
        for round_ in range(3):
            h.submit(0, mod(mac_index=round_ + 2))
            h.submit(1, mod(mac_index=round_ + 2))
            # replica 2 silent
        h.sim.run(until=0.05)
        alarms = h.alarms(ALARM_ROUTER_UNAVAILABLE)
        assert [a.branch for a in alarms] == [2]
        assert alarms[0].details["consecutive_misses"] == 3

    def test_fresh_vote_heals_miss_count(self):
        h = Harness(miss_threshold=2)
        h.submit(0, mod())
        h.submit(1, mod())
        h.sim.run(until=0.05)  # one miss for replica 2
        h.submit(0, mod(mac_index=3))
        h.submit(1, mod(mac_index=3))
        h.submit(2, mod(mac_index=3))  # heals
        h.sim.run(until=0.1)
        h.submit(0, mod(mac_index=4))
        h.submit(1, mod(mac_index=4))
        h.sim.run(until=0.15)
        assert h.alarms(ALARM_ROUTER_UNAVAILABLE) == []


class TestQuarantineProbation:
    def test_quarantined_copies_do_not_count(self):
        h = Harness()
        h.compare.quarantine_branch(1, reason="test")
        h.submit(0, mod())
        h.submit(1, mod())  # probation only
        assert h.released == []
        assert h.compare.stats.quarantined_copies == 1

    def test_dynamic_quorum_after_quarantine(self):
        h = Harness(k=3)  # quorum 2 of 3
        h.compare.quarantine_branch(1, reason="test")
        # active = {0, 2}: strict majority of 2 is still 2
        h.submit(0, mod())
        assert h.released == []
        h.submit(2, mod())
        assert len(h.released) == 1

    def test_probation_clean_copies_readmit(self):
        h = Harness(probation_clean_target=2)
        h.compare.quarantine_branch(1, reason="test")
        for round_ in range(2):
            h.submit(0, mod(mac_index=round_ + 2))
            h.submit(2, mod(mac_index=round_ + 2))  # releases
            h.submit(1, mod(mac_index=round_ + 2))  # clean probation copy
        assert not h.compare.is_quarantined(1)
        assert [a.branch for a in h.alarms(ALARM_BRANCH_READMITTED)] == [1]

    def test_divergent_probation_copy_resets_progress(self):
        h = Harness(probation_clean_target=2)
        h.compare.quarantine_branch(1, reason="test")
        h.submit(0, mod())
        h.submit(2, mod())
        h.submit(1, mod())  # clean: 1/2
        h.submit(0, mod(mac_index=3))
        h.submit(2, mod(mac_index=3))
        h.submit(1, mod(mac_index=3, port=9999))  # divergent probation copy
        h.sim.run(until=0.05)  # the lie expires -> reset
        assert h.compare.stats.probation_resets == 1
        assert h.compare.is_quarantined(1)

    def test_readmission_clears_divergence_strikes(self):
        h = Harness(divergence_threshold=1, probation_clean_target=1)
        h.submit(0, mod())
        h.submit(1, mod(port=9999))
        h.submit(2, mod())
        h.sim.run(until=0.05)
        h.compare.quarantine_branch(1, reason="divergence")
        h.submit(0, mod(mac_index=3))
        h.submit(2, mod(mac_index=3))
        h.submit(1, mod(mac_index=3))  # clean -> readmitted
        assert not h.compare.is_quarantined(1)
        # A relapse must alarm again from scratch.
        h.submit(0, mod(mac_index=4))
        h.submit(1, mod(mac_index=4, port=9999))
        h.submit(2, mod(mac_index=4))
        h.sim.run(until=0.1)
        assert len(h.alarms(ALARM_MINORITY_DIVERGENCE)) == 2

    def test_min_active_branches_refuses_last_quarantine(self):
        h = Harness(k=2, min_active_branches=1)
        assert h.compare.quarantine_branch(0, reason="test")
        assert not h.compare.quarantine_branch(1, reason="test")
        assert len(h.alarms(ALARM_BRANCH_QUARANTINED)) == 1


class TestEvictionWithQuarantine:
    """Satellite: expired/evicted entries must not re-trigger missing-
    branch alarms for quarantined replicas (they are *expected* to be
    absent from the quorum count while on probation)."""

    def test_pop_expired_does_not_alarm_quarantined_branch(self):
        h = Harness(miss_threshold=1)
        h.compare.quarantine_branch(2, reason="test")
        for round_ in range(4):
            h.submit(0, mod(mac_index=round_ + 2))
            h.submit(1, mod(mac_index=round_ + 2))
            # replica 2 absent from the counted vote every round
        h.sim.run(until=0.05)  # sweeper pops all released entries
        assert len(h.compare.book) == 0
        assert h.alarms(ALARM_ROUTER_UNAVAILABLE) == []

    def test_probation_voters_not_counted_missing(self):
        h = Harness(miss_threshold=1)
        h.compare.quarantine_branch(2, reason="test")
        h.submit(0, mod())
        h.submit(1, mod())
        h.submit(2, mod())  # present, on probation
        h.sim.run(until=0.05)
        assert h.alarms(ALARM_ROUTER_UNAVAILABLE) == []

    def test_evict_oldest_finalise_does_not_alarm_quarantined_branch(self):
        h = Harness(miss_threshold=1)
        h.compare.quarantine_branch(2, reason="test")
        h.submit(0, mod())
        h.submit(1, mod())  # released without replica 2
        for entry in h.compare.book.evict_oldest(1):
            h.compare._finalise(entry)
        assert h.alarms(ALARM_ROUTER_UNAVAILABLE) == []
        # the same eviction for a *non*-quarantined absentee does alarm
        h.compare.readmit_branch(2)
        h.submit(0, mod(mac_index=3))
        h.submit(1, mod(mac_index=3))
        for entry in h.compare.book.evict_oldest(1):
            h.compare._finalise(entry)
        assert [a.branch for a in h.alarms(ALARM_ROUTER_UNAVAILABLE)] == [2]

    def test_flush_finalises_everything(self):
        h = Harness()
        h.submit(0, mod())
        h.submit(1, mod())
        h.submit(0, mod(mac_index=3))  # pending
        h.compare.flush()
        assert len(h.compare.book) == 0
        assert h.compare.stats.expired_released == 1
        assert h.compare.stats.blocked_no_quorum == 1
