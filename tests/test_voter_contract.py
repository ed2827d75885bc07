"""The quorum-voter contract, run against both adapters.

Everything here is behaviour :class:`repro.core.membership.QuorumVoter`
owns, so it must hold identically for the data-plane compare and the
control-plane voter.  Adapter-specific behaviour (service queue, cache
cleanup, DoS blocks; taint, blocked reasons) is tested in
``test_compare.py`` / ``test_ctrl_compare.py``.
"""

import pytest

from repro.core.compare import CompareConfig, CompareContext, CompareCore
from repro.core.alarms import (
    ALARM_BRANCH_QUARANTINED,
    ALARM_BRANCH_READMITTED,
    ALARM_MINORITY_DIVERGENCE,
    ALARM_ROUTER_UNAVAILABLE,
)
from repro.core.membership import QuorumVoter
from repro.ctrl.compare import ControlCompare, ControlCompareConfig
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.messages import FLOWMOD_ADD, FlowMod
from repro.sim.engine import Simulator

TIMEOUT = 0.01


class _Harness:
    """One voter plus a recording sink; ``submit(branch, item)`` votes
    for decision number ``item``, ``lie=True`` with divergent bytes."""

    def __init__(self, voter):
        self.voter = voter
        self.sim = voter.sim
        self.released = []

    def alarms(self, kind):
        return [a for a in self.voter.alarms.alarms if a.kind == kind]

    def vote_all(self, item, branches):
        for branch in branches:
            self.submit(branch, item)


class _DataHarness(_Harness):
    def __init__(self, **config):
        config.setdefault("buffer_timeout", TIMEOUT)
        super().__init__(CompareCore(Simulator(), CompareConfig(**config)))
        self.context = CompareContext(scope="s", release=self.released.append)

    def submit(self, branch, item, lie=False):
        packet = Packet.udp(
            MacAddress.from_index(1), MacAddress.from_index(2),
            IpAddress.from_index(1), IpAddress.from_index(2),
            1, 2, payload=b"evil" if lie else b"good", ident=item,
        )
        self.voter.submit(packet, branch, self.context)


class _CtrlHarness(_Harness):
    def __init__(self, **config):
        config.setdefault("vote_timeout", TIMEOUT)
        super().__init__(
            ControlCompare(Simulator(), ControlCompareConfig(**config))
        )
        self.voter.register_switch(7, self.released.append)

    def submit(self, branch, item, lie=False):
        message = FlowMod(
            command=FLOWMOD_ADD,
            match=Match(dl_dst=MacAddress.from_index(item + 2)),
            actions=[Output(9999 if lie else 2)],
            priority=10,
        )
        self.voter.submit(branch, 7, message)


@pytest.fixture(params=[_DataHarness, _CtrlHarness], ids=["data", "ctrl"])
def make(request):
    """Build a harness; every test names the thresholds it relies on
    (the two adapters' defaults differ)."""
    return request.param


def test_both_adapters_are_the_one_voter(make):
    assert isinstance(make().voter, QuorumVoter)


class TestRelease:
    def test_quorum_releases_once_straggler_is_late(self, make):
        h = make(k=3)
        h.submit(0, 1)
        assert h.released == []
        h.submit(1, 1)
        assert len(h.released) == 1
        h.submit(2, 1)  # straggler
        h.sim.run(until=5 * TIMEOUT)
        assert len(h.released) == 1
        assert h.voter.stats.released == 1
        assert h.voter.stats.late_copies == 1
        assert h.voter.stats.expired_released == 1

    def test_same_branch_twice_is_a_duplicate_not_a_vote(self, make):
        h = make(k=3)
        h.submit(0, 1)
        h.submit(0, 1)
        assert h.released == []
        assert h.voter.stats.branch_duplicates == 1


class TestLiveness:
    def test_consecutive_misses_alarm_once(self, make):
        h = make(k=3, miss_threshold=3)
        for item in range(8):
            h.vote_all(item, (0, 1))  # branch 2 silent throughout
        h.sim.run(until=5 * TIMEOUT)
        alarms = h.alarms(ALARM_ROUTER_UNAVAILABLE)
        assert [a.branch for a in alarms] == [2]
        assert alarms[0].details["consecutive_misses"] == 3

    def test_stale_entries_cannot_realarm_after_recovery(self, make):
        # Outage-era entries finalise *after* the branch healed (their
        # deadline falls past its first clean vote); they must not count.
        h = make(k=3, miss_threshold=5)
        for item in range(5):
            h.vote_all(item, (0, 1))
        h.sim.schedule_at(
            TIMEOUT / 2,
            lambda: [h.vote_all(item, (0, 1, 2)) for item in (100, 101, 102)],
        )
        h.sim.run(until=5 * TIMEOUT)
        assert h.alarms(ALARM_ROUTER_UNAVAILABLE) == []


class TestDivergence:
    def _lie(self, h, item):
        h.submit(0, item)
        h.submit(1, item)
        h.submit(2, item, lie=True)

    def test_alarm_latches_at_threshold(self, make):
        h = make(k=3, divergence_threshold=2)
        self._lie(h, 0)
        h.sim.run(until=5 * TIMEOUT)
        assert h.alarms(ALARM_MINORITY_DIVERGENCE) == []
        for item in range(1, 5):
            self._lie(h, item)
        h.sim.run(until=10 * TIMEOUT)
        alarms = h.alarms(ALARM_MINORITY_DIVERGENCE)
        assert [a.branch for a in alarms] == [2]
        assert alarms[0].details["divergent_entries"] == 2
        assert len(h.released) == 5  # the vote itself is unchanged

    def test_readmission_clears_the_latch_and_the_history(self, make):
        h = make(k=3, divergence_threshold=2, probation_clean_target=1)
        self._lie(h, 0)
        self._lie(h, 1)
        h.sim.run(until=5 * TIMEOUT)
        assert len(h.alarms(ALARM_MINORITY_DIVERGENCE)) == 1
        assert h.voter.quarantine_branch(2, reason="divergence")
        h.vote_all(10, (0, 1, 2))  # clean probation copy -> readmitted
        assert not h.voter.is_quarantined(2)
        self._lie(h, 20)  # one relapse: below the threshold again
        h.sim.run(until=10 * TIMEOUT)
        assert len(h.alarms(ALARM_MINORITY_DIVERGENCE)) == 1
        self._lie(h, 21)  # second relapse re-alarms from scratch
        h.sim.run(until=15 * TIMEOUT)
        assert len(h.alarms(ALARM_MINORITY_DIVERGENCE)) == 2

    def test_branch_quarantined_before_expiry_is_not_struck(self, make):
        # Its absence from any majority is already being handled; a
        # strike now would pre-load the history it restarts with.
        h = make(k=3, divergence_threshold=1)
        h.submit(2, 0, lie=True)
        assert h.voter.quarantine_branch(2, reason="operator")
        h.sim.run(until=5 * TIMEOUT)
        assert h.alarms(ALARM_MINORITY_DIVERGENCE) == []


class TestQuarantine:
    def test_shrink_completes_pending_votes(self, make):
        h = make(k=5)  # quorum 3
        h.vote_all(0, (0, 1))
        assert h.released == []
        assert h.voter.quarantine_branch(3, reason="test")
        assert h.released == []  # 4 active: majority is still 3
        assert h.voter.quarantine_branch(4, reason="test")
        assert len(h.released) == 1  # 3 active: 2 of 3 suffice
        assert h.voter.book.quorum == 2
        assert h.voter.active_branches() == [0, 1, 2]
        alarm = h.alarms(ALARM_BRANCH_QUARANTINED)[-1]
        assert alarm.details["masking_margin"] == 1

    def test_quarantined_copies_do_not_count(self, make):
        h = make(k=3)
        h.voter.quarantine_branch(1, reason="test")
        h.vote_all(0, (0, 1))
        assert h.released == []
        assert h.voter.stats.quarantined_copies == 1
        h.submit(2, 0)
        assert len(h.released) == 1

    def test_quarantined_branch_is_not_missed(self, make):
        h = make(k=3, miss_threshold=1)
        h.voter.quarantine_branch(2, reason="test")
        for item in range(4):
            h.vote_all(item, (0, 1))
        h.sim.run(until=5 * TIMEOUT)
        assert len(h.voter.book) == 0
        assert h.alarms(ALARM_ROUTER_UNAVAILABLE) == []

    def test_refused_below_min_active_branches(self, make):
        h = make(k=3, min_active_branches=2)
        assert h.voter.quarantine_branch(0, reason="test")
        assert not h.voter.quarantine_branch(1, reason="test")
        assert not h.voter.quarantine_branch(0, reason="again")
        assert len(h.alarms(ALARM_BRANCH_QUARANTINED)) == 1
        assert h.voter.quarantined_branches() == [0]


class TestProbation:
    def test_clean_copies_earn_credit_and_readmit(self, make):
        h = make(k=3, probation_clean_target=2)
        h.voter.quarantine_branch(1, reason="test")
        h.vote_all(0, (1, 0, 2))  # probation copy first: credited on release
        assert h.voter.probation_status(1) == (1, 2)
        h.vote_all(1, (0, 2, 1))  # probation copy after the release
        assert h.voter.probation_status(1) is None
        assert not h.voter.is_quarantined(1)
        assert [a.branch for a in h.alarms(ALARM_BRANCH_READMITTED)] == [1]
        assert h.voter.book.quorum == 2
        assert h.voter.stats.readmissions == 1

    def test_unconfirmed_probation_copy_resets_progress(self, make):
        h = make(k=3, probation_clean_target=2)
        h.voter.quarantine_branch(1, reason="test")
        h.vote_all(0, (0, 2, 1))
        assert h.voter.probation_status(1) == (1, 2)
        h.vote_all(1, (0, 2))
        h.submit(1, 1, lie=True)
        h.sim.run(until=5 * TIMEOUT)  # the lie expires unconfirmed
        assert h.voter.stats.probation_resets == 1
        assert h.voter.probation_status(1) == (0, 2)


class TestSweep:
    def test_sweep_listeners_see_each_tick_until_idle(self, make):
        h = make(k=3)
        ticks = []
        h.voter.add_sweep_listener(ticks.append)
        assert h.voter.sweep_period == TIMEOUT
        h.submit(0, 0)
        h.sim.run()  # terminates only because the sweeper stops when idle
        assert ticks == pytest.approx([TIMEOUT])
        h.voter.remove_sweep_listener(ticks.append)
        h.submit(0, 1)
        h.sim.run()
        assert len(ticks) == 1
