"""Tests for the OF 1.0 flow table: priorities, counters, timeouts."""

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.openflow.actions import Output
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match

M1, M2 = MacAddress.from_index(1), MacAddress.from_index(2)
IP1, IP2 = IpAddress.from_index(1), IpAddress.from_index(2)


def pkt():
    return Packet.udp(M1, M2, IP1, IP2, 1, 2, payload=b"x")


def entry(match=None, priority=0, actions=(Output(1),), **kwargs):
    return FlowEntry(match or Match.wildcard(), list(actions), priority=priority, **kwargs)


class TestLookup:
    def test_highest_priority_wins(self):
        table = FlowTable()
        low = entry(Match(dl_dst=M2), priority=1, actions=[Output(1)])
        high = entry(Match(dl_dst=M2), priority=9, actions=[Output(2)])
        table.add(low)
        table.add(high)
        assert table.lookup(pkt(), 1, now=0.0) is high

    def test_equal_priority_earliest_installed_wins(self):
        table = FlowTable()
        first = entry(Match(dl_dst=M2), priority=5, actions=[Output(1)])
        second = entry(Match(dl_src=M1), priority=5, actions=[Output(2)])
        table.add(first)
        table.add(second)
        assert table.lookup(pkt(), 1, now=0.0) is first

    def test_no_match_returns_none(self):
        table = FlowTable()
        table.add(entry(Match(dl_dst=M1)))
        assert table.lookup(pkt(), 1, now=0.0) is None

    def test_identical_match_and_priority_replaces(self):
        table = FlowTable()
        table.add(entry(Match(dl_dst=M2), priority=5, actions=[Output(1)]))
        table.add(entry(Match(dl_dst=M2), priority=5, actions=[Output(7)]))
        assert len(table) == 1
        hit = table.lookup(pkt(), 1, now=0.0)
        assert hit.actions == [Output(7)]

    def test_counters_update_on_hit(self):
        table = FlowTable()
        e = entry()
        table.add(e)
        p = pkt()
        table.lookup(p, 1, now=1.0)
        table.lookup(p, 1, now=2.0)
        assert e.packet_count == 2
        assert e.byte_count == 2 * p.wire_len
        assert e.last_matched == 2.0


class TestTimeouts:
    def test_hard_timeout_expires(self):
        table = FlowTable()
        e = entry(hard_timeout=10.0)
        table.add(e)
        assert table.lookup(pkt(), 1, now=9.0) is e
        assert table.lookup(pkt(), 1, now=10.5) is None
        assert e.expired(10.5) == "hard"

    def test_idle_timeout_refreshes_on_hits(self):
        table = FlowTable()
        e = entry(idle_timeout=5.0)
        table.add(e)
        table.lookup(pkt(), 1, now=4.0)  # refresh
        assert table.lookup(pkt(), 1, now=8.0) is e
        assert table.lookup(pkt(), 1, now=14.0) is None

    def test_zero_timeouts_never_expire(self):
        e = entry()
        assert e.expired(1e9) is None

    def test_sweep_removes_expired(self):
        table = FlowTable()
        table.add(entry(Match(dl_dst=M2), hard_timeout=1.0))
        table.add(entry(Match(dl_src=M1)))
        swept = table.sweep_expired(now=2.0)
        assert len(swept) == 1 and len(table) == 1

    def test_sweep_noop_when_nothing_expired(self):
        table = FlowTable()
        table.add(entry())
        assert table.sweep_expired(now=100.0) == []
        assert len(table) == 1


class TestDelete:
    def test_delete_by_match(self):
        table = FlowTable()
        table.add(entry(Match(dl_dst=M2), priority=1))
        table.add(entry(Match(dl_dst=M2), priority=2))
        table.add(entry(Match(dl_src=M1), priority=1))
        removed = table.remove(match=Match(dl_dst=M2))
        assert len(removed) == 2 and len(table) == 1

    def test_delete_all(self):
        table = FlowTable()
        table.add(entry(Match(dl_dst=M2)))
        table.add(entry(Match(dl_src=M1)))
        assert len(table.remove()) == 2
        assert len(table) == 0

    def test_delete_strict_requires_priority(self):
        table = FlowTable()
        table.add(entry(Match(dl_dst=M2), priority=1))
        table.add(entry(Match(dl_dst=M2), priority=2))
        removed = table.remove(match=Match(dl_dst=M2), priority=2, strict=True)
        assert len(removed) == 1
        assert table.entries[0].priority == 1


class TestIntrospection:
    def test_total_packets(self):
        table = FlowTable()
        table.add(entry())
        table.lookup(pkt(), 1, now=0.0)
        assert table.total_packets() == 1

    def test_find(self):
        table = FlowTable()
        table.add(entry(priority=1))
        table.add(entry(Match(dl_dst=M2), priority=2))
        assert len(table.find(lambda e: e.priority > 1)) == 1

    def test_iteration_is_snapshot(self):
        table = FlowTable()
        table.add(entry())
        for _ in table:
            table.remove()  # must not blow up mid-iteration
        assert len(table) == 0
