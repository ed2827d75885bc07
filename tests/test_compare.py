"""Tests for the compare element: release, timeouts, DoS mitigation,
liveness alarms, cache cleanup and processing model.

Behaviour shared with the control-plane voter (the quorum-voter
contract) is tested against both in ``test_voter_contract.py``.
"""

import pytest

from repro.core.alarms import (
    ALARM_DOS_SUSPECTED,
    ALARM_MINORITY_DIVERGENCE,
    ALARM_ROUTER_UNAVAILABLE,
    ALARM_SINGLE_SOURCE_PACKET,
)
from repro.core.compare import CompareConfig, CompareContext, CompareCore
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.sim.engine import Simulator


def pkt(ident=0, payload=b"x"):
    return Packet.udp(
        MacAddress.from_index(1), MacAddress.from_index(2),
        IpAddress.from_index(1), IpAddress.from_index(2),
        1, 2, payload=payload, ident=ident,
    )


class Harness:
    """A compare plus a recording context."""

    def __init__(self, **config_kwargs):
        self.sim = Simulator()
        config_kwargs.setdefault("k", 3)
        config_kwargs.setdefault("buffer_timeout", 0.01)
        self.core = CompareCore(self.sim, CompareConfig(**config_kwargs))
        self.released = []
        self.blocked = []
        self.context = CompareContext(
            scope="s",
            release=self.released.append,
            block_branch=lambda branch, dur: self.blocked.append((branch, dur)),
        )

    def submit(self, packet, branch, claim=None):
        self.core.submit(packet, branch, self.context, claim=claim)


class TestRelease:
    def test_released_packet_is_first_copy(self):
        h = Harness()
        first = pkt()
        h.submit(first, 0)
        h.submit(pkt(), 1)
        h.sim.run(until=0.001)
        assert h.released[0] is first

    def test_two_copies_suffice_for_k3(self):
        h = Harness()
        h.submit(pkt(), 0)
        h.submit(pkt(), 2)
        h.sim.run(until=0.001)
        assert len(h.released) == 1

    def test_single_copy_never_released(self):
        h = Harness()
        h.submit(pkt(), 1)
        h.sim.run(until=0.05)
        assert h.released == []
        assert h.core.stats.expired_unreleased == 1

    def test_k5_needs_three(self):
        h = Harness(k=5)
        h.submit(pkt(), 0)
        h.submit(pkt(), 1)
        h.sim.run(until=0.001)
        assert h.released == []
        h.submit(pkt(), 2)
        h.sim.run(until=0.002)
        assert len(h.released) == 1

    def test_explicit_quorum_override(self):
        h = Harness(k=3, quorum=3)
        h.submit(pkt(), 0)
        h.submit(pkt(), 1)
        h.sim.run(until=0.001)
        assert h.released == []

    def test_different_packets_do_not_vote_together(self):
        h = Harness()
        h.submit(pkt(ident=1), 0)
        h.submit(pkt(ident=2), 1)
        h.sim.run(until=0.001)
        assert h.released == []

    def test_tampered_copy_votes_separately(self):
        h = Harness()
        h.submit(pkt(payload=b"good"), 0)
        h.submit(pkt(payload=b"good"), 1)
        h.submit(pkt(payload=b"evil"), 2)
        h.sim.run(until=0.001)
        assert len(h.released) == 1
        assert h.released[0].payload == b"good"

    def test_scopes_are_isolated(self):
        h = Harness()
        other_released = []
        other = CompareContext("t", other_released.append)
        h.core.submit(pkt(), 0, h.context)
        h.core.submit(pkt(), 1, other)
        h.sim.run(until=0.001)
        assert h.released == [] and other_released == []

    def test_claims_are_part_of_the_vote(self):
        # two branches agree on bytes but disagree on the egress port:
        # no majority for either decision
        h = Harness()
        h.submit(pkt(), 0, claim=1)
        h.submit(pkt(), 1, claim=2)
        h.sim.run(until=0.001)
        assert h.released == []
        h.submit(pkt(), 2, claim=1)
        h.sim.run(until=0.002)
        assert len(h.released) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CompareConfig(k=0).validate()
        with pytest.raises(ValueError):
            CompareConfig(k=3, quorum=4).validate()
        with pytest.raises(ValueError):
            CompareConfig(buffer_timeout=0).validate()


class TestTimeoutsAndAlarms:
    def test_single_source_alarm_on_expiry(self):
        h = Harness()
        h.submit(pkt(), 2)
        h.sim.run(until=0.05)
        alarms = h.core.alarms.of_kind(ALARM_SINGLE_SOURCE_PACKET)
        assert len(alarms) == 1
        assert alarms[0].branch == 2

    def test_no_alarm_for_two_branch_expiry(self):
        h = Harness(k=5)  # quorum 3
        h.submit(pkt(), 0)
        h.submit(pkt(), 1)
        h.sim.run(until=0.05)
        assert h.core.alarms.count(ALARM_SINGLE_SOURCE_PACKET) == 0
        assert h.core.stats.expired_unreleased == 1

    def test_router_unavailable_alarm_after_consecutive_misses(self):
        h = Harness(miss_threshold=5)
        for i in range(5):
            h.submit(pkt(ident=i), 0)
            h.submit(pkt(ident=i), 1)  # branch 2 never delivers
        h.sim.run(until=0.1)
        alarms = h.core.alarms.of_kind(ALARM_ROUTER_UNAVAILABLE)
        assert len(alarms) == 1
        assert alarms[0].branch == 2

    def test_miss_counter_resets_on_recovery(self):
        h = Harness(miss_threshold=5)
        for i in range(4):
            h.submit(pkt(ident=i), 0)
            h.submit(pkt(ident=i), 1)
        h.submit(pkt(ident=99), 0)
        h.submit(pkt(ident=99), 1)
        h.submit(pkt(ident=99), 2)  # branch 2 recovers
        h.sim.run(until=0.1)
        for i in range(4):
            h.submit(pkt(ident=100 + i), 0)
            h.submit(pkt(ident=100 + i), 1)
        h.sim.run(until=0.2)
        assert h.core.alarms.count(ALARM_ROUTER_UNAVAILABLE) == 0

    def test_stale_outage_entries_cannot_realarm_after_recovery(self):
        """Regression: outage-era entries finalise *after* the branch has
        healed (their deadline falls past the first clean vote).  Those
        stale misses must not count toward the threshold, or a healthy
        router gets alarmed on outdated evidence."""
        h = Harness(miss_threshold=5, buffer_timeout=0.01)
        # Outage: five entries at t=0 that branch 2 never delivers.
        # They finalise at t=0.01 — after the recovery below.
        for i in range(5):
            h.submit(pkt(ident=i), 0)
            h.submit(pkt(ident=i), 1)

        def heal():
            for i in range(100, 103):
                for branch in range(3):
                    h.submit(pkt(ident=i), branch)

        h.sim.schedule_at(0.005, heal)
        h.sim.run(until=0.05)
        assert h.core.alarms.count(ALARM_ROUTER_UNAVAILABLE) == 0

    def test_unavailable_alarm_not_repeated(self):
        h = Harness(miss_threshold=3)
        for i in range(10):
            h.submit(pkt(ident=i), 0)
            h.submit(pkt(ident=i), 1)
        h.sim.run(until=0.2)
        assert h.core.alarms.count(ALARM_ROUTER_UNAVAILABLE) == 1

    def test_flush_finalises_everything(self):
        h = Harness()
        h.submit(pkt(), 0)
        h.sim.run(until=0.001)
        h.core.flush()
        assert h.core.stats.expired_unreleased == 1
        assert len(h.core.book) == 0


class TestDosMitigation:
    def test_duplicate_flood_triggers_block(self):
        h = Harness(dup_threshold=4, block_duration=0.5)
        flood_packet = pkt()
        h.submit(flood_packet.copy(), 1)
        for _ in range(4):
            h.submit(flood_packet.copy(), 1)
        h.sim.run(until=0.001)
        assert h.blocked == [(1, 0.5)]
        assert h.core.alarms.count(ALARM_DOS_SUSPECTED) == 1

    def test_block_not_reissued_while_active(self):
        h = Harness(dup_threshold=2, block_duration=1.0)
        flood_packet = pkt()
        h.submit(flood_packet.copy(), 1)
        for _ in range(10):
            h.submit(flood_packet.copy(), 1)
        h.sim.run(until=0.001)
        assert len(h.blocked) == 1

    def test_benign_traffic_does_not_trigger_block(self):
        h = Harness(dup_threshold=3)
        for i in range(20):
            for branch in range(3):
                h.submit(pkt(ident=i), branch)
        h.sim.run(until=0.1)
        assert h.blocked == []

    def test_crafted_unique_flood_triggers_block(self):
        h = Harness(craft_threshold=10)
        for i in range(12):
            h.submit(pkt(ident=1000 + i), 2)  # unique junk from branch 2
        h.sim.run(until=0.1)
        assert h.core.stats.blocks_issued >= 1

    def test_crafted_flood_is_blocked_at_the_endpoint_that_collected_it(self):
        """The compare advises "the corresponding switch": a second scope
        that happened to submit first is not the one to block."""
        h = Harness(craft_threshold=4, block_duration=0.5)
        blocked_at_b = []
        context_b = CompareContext(
            scope="sB",
            release=h.released.append,
            block_branch=lambda branch, dur: blocked_at_b.append((branch, dur)),
        )
        for branch in range(3):  # one honest packet voted through scope "s"
            h.submit(pkt(ident=1), branch)
        for i in range(7):  # crafted, from branch 1, collected at sB only
            h.core.submit(pkt(ident=1000 + i), 1, context_b)
        h.sim.run(until=0.1)
        assert len(h.released) == 1
        assert h.core.alarms.count(ALARM_SINGLE_SOURCE_PACKET) == 7
        assert h.core.alarms.count(ALARM_DOS_SUSPECTED) == 1
        assert blocked_at_b == [(1, 0.5)]
        assert h.blocked == []


class TestProcessingModel:
    def test_proc_time_delays_release(self):
        h = Harness(proc_time=1e-3)
        h.submit(pkt(), 0)
        h.submit(pkt(), 1)
        h.sim.run(until=0.01)
        # two copies served sequentially: release at ~2ms
        assert h.core.stats.released == 1
        assert h.sim.now >= 2e-3

    def test_queue_bound_drops_copies(self):
        h = Harness(proc_time=1e-3, service_queue_capacity=2, buffer_timeout=1.0)
        for i in range(10):
            h.submit(pkt(ident=i), 0)
        h.sim.run(until=0.001)
        assert h.core.stats.queue_drops == 8

    def test_cleanup_runs_when_cache_full(self):
        h = Harness(cache_capacity=4, buffer_timeout=100.0)
        for i in range(10):
            h.submit(pkt(ident=i), 0)
        h.sim.run(until=0.001)
        assert h.core.stats.cleanups >= 1
        assert h.core.stats.evicted > 0

    def test_cleanup_prefers_expired_entries(self):
        h = Harness(cache_capacity=4, buffer_timeout=0.001)
        for i in range(4):
            h.submit(pkt(ident=i), 0)
        h.sim.run(until=0.002)

        def late():
            for i in range(4, 6):
                h.submit(pkt(ident=i), 0)

        h.sim.schedule(0.001, late)
        h.sim.run(until=0.01)
        # old entries were expired, not force-evicted
        assert h.core.stats.evicted == 0

    def test_cleanup_stall_time_accounted(self):
        h = Harness(cache_capacity=2, buffer_timeout=100.0, cleanup_duration=5e-4)
        for i in range(6):
            h.submit(pkt(ident=i), 0)
        h.sim.run(until=0.01)
        assert h.core.stats.cleanup_stall_time >= 5e-4

    def test_sweeper_stops_when_idle(self):
        h = Harness()
        h.submit(pkt(), 0)
        h.sim.run()  # runs to completion only if the sweeper stops itself
        assert h.core.stats.expired_unreleased == 1


class TestEvictionWithQuarantine:
    """Entries leaving the cache via expiry or eviction must not count a
    quarantined branch as missing: its absence from the quorum is the
    *expected* consequence of quarantine, not a fresh outage."""

    def test_expired_entries_do_not_alarm_quarantined_branch(self):
        h = Harness(miss_threshold=1)
        assert h.core.quarantine_branch(2, reason="divergence")
        for i in range(4):
            h.submit(pkt(ident=i), 0)
            h.submit(pkt(ident=i), 1)  # released without branch 2
        h.sim.run(until=0.05)  # sweeper expires every tombstone
        assert len(h.core.book) == 0
        kinds = [a.kind for a in h.core.alarms.alarms]
        assert ALARM_ROUTER_UNAVAILABLE not in kinds

    def test_evicted_entries_do_not_alarm_quarantined_branch(self):
        # Cache pressure forces evict_oldest long before the deadline;
        # the finalise pass must apply the same quarantine exemption.
        h = Harness(miss_threshold=1, cache_capacity=2, buffer_timeout=100.0)
        assert h.core.quarantine_branch(2, reason="divergence")
        for i in range(6):
            h.submit(pkt(ident=i), 0)
            h.submit(pkt(ident=i), 1)
        h.sim.run(until=0.01)
        assert h.core.stats.evicted > 0
        kinds = [a.kind for a in h.core.alarms.alarms]
        assert ALARM_ROUTER_UNAVAILABLE not in kinds

    def test_evicted_entries_still_alarm_honest_absentee(self):
        # Same cache pressure, no quarantine: the absence is a real
        # outage signal and the eviction path must still count it.
        h = Harness(miss_threshold=1, cache_capacity=2, buffer_timeout=100.0)
        for i in range(6):
            h.submit(pkt(ident=i), 0)
            h.submit(pkt(ident=i), 1)
        h.sim.run(until=0.01)
        assert h.core.stats.evicted > 0
        unavailable = [
            a for a in h.core.alarms.alarms if a.kind == ALARM_ROUTER_UNAVAILABLE
        ]
        assert [a.branch for a in unavailable] == [2]

    def test_evicted_probation_copies_keep_their_credit(self):
        # A clean probation copy confirmed by a released majority counts
        # toward re-admission even when the entry leaves by eviction.
        h = Harness(
            miss_threshold=1,
            cache_capacity=2,
            buffer_timeout=100.0,
            probation_clean_target=4,
        )
        assert h.core.quarantine_branch(2, reason="divergence")
        for i in range(6):
            h.submit(pkt(ident=i), 0)
            h.submit(pkt(ident=i), 1)
            h.submit(pkt(ident=i), 2)  # clean probation copies
        h.sim.run(until=0.01)
        assert h.core.stats.readmissions == 1
        assert not h.core.is_quarantined(2)


class TestMinorityDivergence:
    """The per-branch divergence counter: a silent colluding minority is
    surfaced (alarm) without changing the vote."""

    def test_colluding_minority_alarms_without_changing_vote(self):
        # k=5: branches 3 and 4 deliver identical *altered* copies of
        # every packet.  Two identical copies never trip the
        # single-source alarm, and the honest majority still releases —
        # but the divergence counter accumulates and latches the alarm.
        h = Harness(k=5, divergence_threshold=4)
        for i in range(6):
            good, evil = pkt(ident=i, payload=b"good"), pkt(ident=i, payload=b"evil")
            for branch in (0, 1, 2):
                h.submit(good.copy(), branch)
            for branch in (3, 4):
                h.submit(evil.copy(), branch)
        h.sim.run(until=1.0)
        assert len(h.released) == 6  # the vote is unchanged
        assert all(p.payload == b"good" for p in h.released)
        diverging = sorted(
            a.branch for a in h.core.alarms.alarms
            if a.kind == ALARM_MINORITY_DIVERGENCE
        )
        assert diverging == [3, 4]
        assert h.core.stats.divergent_copies == 12
        assert h.core.stats.divergence_alarms == 2

    def test_alarm_latches_once_per_branch(self):
        h = Harness(k=3, divergence_threshold=2)
        for i in range(8):
            h.submit(pkt(ident=i, payload=b"good"), 0)
            h.submit(pkt(ident=i, payload=b"good"), 1)
            h.submit(pkt(ident=i, payload=b"evil"), 2)
        h.sim.run(until=1.0)
        alarms = [
            a for a in h.core.alarms.alarms
            if a.kind == ALARM_MINORITY_DIVERGENCE
        ]
        assert len(alarms) == 1
        assert alarms[0].branch == 2
        assert alarms[0].details["divergent_entries"] == 2

    def test_honest_branches_never_counted(self):
        h = Harness(k=3, divergence_threshold=1)
        for i in range(4):
            for branch in range(3):
                h.submit(pkt(ident=i), branch)
        h.sim.run(until=1.0)
        assert h.core.stats.divergent_copies == 0
        assert not [
            a for a in h.core.alarms.alarms
            if a.kind == ALARM_MINORITY_DIVERGENCE
        ]

    def test_readmission_resets_divergence_history(self):
        h = Harness(k=3, divergence_threshold=3, probation_clean_target=2)
        # two divergent entries for branch 2 (below the threshold)...
        for i in range(2):
            h.submit(pkt(ident=i, payload=b"good"), 0)
            h.submit(pkt(ident=i, payload=b"good"), 1)
            h.submit(pkt(ident=i, payload=b"evil"), 2)
        h.sim.run(until=0.05)
        assert h.core.stats.divergent_copies == 2
        # ... then quarantine, serve probation, readmit: history resets
        assert h.core.quarantine_branch(2, reason="operator")
        for i in range(10, 14):
            for branch in range(3):
                h.submit(pkt(ident=i), branch)
        h.sim.run(until=0.1)
        assert not h.core.is_quarantined(2)
        # two more divergent entries stay below the threshold again
        for i in range(20, 22):
            h.submit(pkt(ident=i, payload=b"good"), 0)
            h.submit(pkt(ident=i, payload=b"good"), 1)
            h.submit(pkt(ident=i, payload=b"evil"), 2)
        h.sim.run(until=0.2)
        assert not [
            a for a in h.core.alarms.alarms
            if a.kind == ALARM_MINORITY_DIVERGENCE
        ]

    def test_divergence_threshold_validated(self):
        with pytest.raises(ValueError):
            CompareConfig(divergence_threshold=0).validate()
