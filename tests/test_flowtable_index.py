"""Exact-match index coherence: indexed lookup == linear scan, always.

``FlowTable.lookup`` answers from a hash index for fully-specified
entries plus an early-exit scan for the rest.  Every test here
cross-checks it against a straight re-implementation of the old linear
scan over the same entries, across installs, replacements, removals,
idle/hard expiry and adversarially shaped packets (tagged frames hitting
untagged entries, IP headers under non-IP ethertypes, transport headers
under odd protocols).
"""

from __future__ import annotations

import random

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import (
    ETH_TYPE_IPV4,
    Ethernet,
    Ipv4,
    Packet,
    Tcp,
    Udp,
    Vlan,
)
from repro.openflow.actions import Output
from repro.openflow.flowtable import FlowEntry, FlowTable, _rank
from repro.openflow.match import Match, packet_probe_keys

#: a non-IP EtherType (ARP's)
ETH_TYPE_ARP = 0x0806


def reference_lookup(table, packet, in_port, now):
    """The pre-index semantics: rank-ordered scan, no counter updates."""
    for entry in sorted(table.entries, key=_rank):
        if entry.expired(now):
            continue
        if entry.match.matches(packet, in_port):
            return entry
    return None


def assert_coherent(table, packets, ports, now):
    """Indexed lookup must return what the reference scan returns."""
    for packet in packets:
        for in_port in ports:
            expect = reference_lookup(table, packet, in_port, now)
            got = table.lookup(packet, in_port, now)
            assert got is expect, (
                f"index/scan divergence at now={now} port={in_port}: "
                f"indexed={got!r} scanned={expect!r} for {packet!r}"
            )


def udp_packet(i: int, vlan=None, dport: int = 5001) -> Packet:
    return Packet.udp(
        src_mac=MacAddress.from_index(10 + i),
        dst_mac=MacAddress.from_index(20 + i),
        src_ip=IpAddress.from_index(10 + i),
        dst_ip=IpAddress.from_index(20 + i),
        sport=4000 + i,
        dport=dport,
        payload=b"x",
        vlan=vlan,
    )


class TestDirectedCoherence:
    def test_exact_entries_indexed(self):
        table = FlowTable()
        packets = [udp_packet(i) for i in range(8)]
        for i, pkt in enumerate(packets):
            table.add(FlowEntry(Match.from_packet(pkt, in_port=1), [Output(2)],
                                priority=i % 3))
        assert table._exact and not table._wildcard
        assert_coherent(table, packets, ports=(1, 2), now=0.0)

    def test_untagged_exact_entry_matches_tagged_packet(self):
        """dl_vlan wildcarded (None) legally matches tagged frames."""
        table = FlowTable()
        plain = udp_packet(1)
        table.add(FlowEntry(Match.from_packet(plain, in_port=1), [Output(2)]))
        tagged = udp_packet(1, vlan=Vlan(30, pcp=2))
        assert reference_lookup(table, tagged, 1, 0.0) is not None
        assert_coherent(table, [plain, tagged], ports=(1,), now=0.0)

    def test_tagged_entry_beats_untagged_on_priority(self):
        table = FlowTable()
        plain = udp_packet(1)
        tagged = udp_packet(1, vlan=Vlan(30, pcp=2))
        table.add(FlowEntry(Match.from_packet(plain, in_port=1), [Output(2)],
                            priority=1))
        table.add(FlowEntry(Match.from_packet(tagged, in_port=1), [Output(3)],
                            priority=5))
        assert_coherent(table, [plain, tagged], ports=(1,), now=0.0)

    def test_wildcard_outranks_exact(self):
        table = FlowTable()
        pkt = udp_packet(2)
        table.add(FlowEntry(Match.from_packet(pkt, in_port=1), [Output(2)],
                            priority=1))
        table.add(FlowEntry(Match(dl_dst=pkt.fields()[0].dst), [Output(9)],
                            priority=10))
        got = table.lookup(pkt, 1, 0.0)
        assert got is not None and got.priority == 10
        assert_coherent(table, [pkt], ports=(1,), now=0.0)

    def test_ip_headers_under_non_ip_ethertype(self):
        """Crafted frame: ARP ethertype but IP/UDP objects attached."""
        crafted = Packet(
            Ethernet(MacAddress.from_index(2), MacAddress.from_index(1),
                     ETH_TYPE_ARP),
            Ipv4(IpAddress.from_index(1), IpAddress.from_index(2), 17),
            Udp(1000, 2000),
            b"zz",
        )
        table = FlowTable()
        # from_packet on the crafted packet itself: carries nw/tp fields
        # under a non-IPv4 dl_type, which is *not* the exact shape.
        entry_odd = FlowEntry(Match.from_packet(crafted, in_port=1), [Output(2)])
        table.add(entry_odd)
        assert not entry_odd.match.is_exact()
        # An exact ARP-shaped entry (nw/tp all None) still matches it.
        table.add(FlowEntry(
            Match(in_port=1,
                  dl_src=crafted.fields()[0].src,
                  dl_dst=crafted.fields()[0].dst,
                  dl_type=ETH_TYPE_ARP),
            [Output(3)], priority=2))
        assert_coherent(table, [crafted], ports=(1, 2), now=0.0)

    def test_transport_header_under_odd_protocol(self):
        """proto=99 with a UDP header attached: tp fields never indexed."""
        crafted = Packet(
            Ethernet(MacAddress.from_index(2), MacAddress.from_index(1),
                     ETH_TYPE_IPV4),
            Ipv4(IpAddress.from_index(1), IpAddress.from_index(2), 99),
            None,
            b"zz",
        )
        object.__setattr__(crafted, "_l4", Udp(1000, 2000))  # bypass guard
        table = FlowTable()
        match = Match.from_packet(crafted, in_port=1)
        match.tp_src = match.tp_dst = None  # proto-99 exact shape
        table.add(FlowEntry(match, [Output(2)]))
        assert match.is_exact()
        assert_coherent(table, [crafted], ports=(1,), now=0.0)

    def test_replacement_keeps_position_and_index(self):
        table = FlowTable()
        first = udp_packet(1)
        second = udp_packet(2)
        # Two wildcard entries at equal priority that both match `first`.
        m_dst = Match(dl_dst=first.fields()[0].dst)
        m_src = Match(dl_src=first.fields()[0].src)
        table.add(FlowEntry(m_dst, [Output(2)], priority=1))
        table.add(FlowEntry(m_src, [Output(3)], priority=1))
        # Replace the earliest-installed one: it must keep winning ties.
        replacement = FlowEntry(m_dst, [Output(7)], priority=1)
        table.add(replacement)
        assert table.lookup(first, 1, 0.0) is replacement
        assert_coherent(table, [first, second], ports=(1,), now=0.0)

    def test_expiry_transitions(self):
        table = FlowTable()
        pkt = udp_packet(3)
        table.add(FlowEntry(Match.from_packet(pkt, in_port=1), [Output(2)],
                            idle_timeout=1.0, created_at=0.0))
        table.add(FlowEntry(Match(dl_dst=pkt.fields()[0].dst), [Output(9)],
                            hard_timeout=2.5, created_at=0.0))
        for now in (0.0, 0.5, 0.99, 1.0, 2.0, 2.5, 3.0):
            assert_coherent(table, [pkt], ports=(1,), now=now)
        # Note: lookups above refresh last_matched, so the idle entry
        # survives while hit; sweep at a quiet moment drops both.
        removed = table.sweep_expired(now=10.0)
        assert len(removed) == 2
        assert table.lookup(pkt, 1, 10.0) is None

    def test_remove_keeps_index_coherent(self):
        table = FlowTable()
        packets = [udp_packet(i) for i in range(4)]
        matches = [Match.from_packet(p, in_port=1) for p in packets]
        for match in matches:
            table.add(FlowEntry(match, [Output(2)]))
        table.remove(matches[1])
        assert_coherent(table, packets, ports=(1,), now=0.0)
        table.remove()  # flush
        assert len(table) == 0
        assert_coherent(table, packets, ports=(1,), now=0.0)

    def test_probe_keys_cover_primary_and_vlan_stripped(self):
        tagged = udp_packet(1, vlan=Vlan(30, pcp=2))
        keys = packet_probe_keys(tagged, in_port=1)
        assert len(keys) == 2
        assert Match.from_packet(tagged, in_port=1)._key() == keys[0]
        plain_key = keys[1]
        assert plain_key[3] is None and plain_key[4] is None


class TestRandomisedCoherence:
    """Property-style: random op sequences never diverge from the scan."""

    def test_random_tables_and_packets(self):
        rng = random.Random(1234)
        macs = [MacAddress.from_index(i) for i in range(6)]
        ips = [IpAddress.from_index(i) for i in range(6)]

        def random_packet():
            eth = Ethernet(rng.choice(macs), rng.choice(macs),
                           rng.choice([ETH_TYPE_IPV4, ETH_TYPE_IPV4,
                                       ETH_TYPE_ARP]))
            vlan = Vlan(rng.randrange(1, 5), pcp=rng.randrange(2)) \
                if rng.random() < 0.4 else None
            if eth.ethertype == ETH_TYPE_IPV4:
                proto = rng.choice([6, 17, 17, 1, 99])
                ip = Ipv4(rng.choice(ips), rng.choice(ips), proto,
                          tos=rng.choice([0, 4]))
                if proto == 6:
                    l4 = Tcp(rng.randrange(1, 4) * 1000, 80)
                elif proto == 17:
                    l4 = Udp(rng.randrange(1, 4) * 1000, 5001)
                else:
                    l4 = None
                return Packet(eth, ip, l4, b"p", vlan=vlan)
            return Packet(eth, payload=b"p", vlan=vlan)

        def random_match(packet):
            base = Match.from_packet(packet,
                                     in_port=rng.choice([1, 2, None]))
            # Randomly wildcard a few fields to mix exact and scan shapes.
            for field in rng.sample(Match.__slots__,
                                    k=rng.randrange(0, 6)):
                setattr(base, field, None)
            return base

        for _trial in range(25):
            table = FlowTable()
            packets = [random_packet() for _ in range(10)]
            now = 0.0
            for _op in range(30):
                roll = rng.random()
                if roll < 0.55 or len(table) == 0:
                    table.add(FlowEntry(
                        random_match(rng.choice(packets)),
                        [Output(rng.randrange(1, 4))],
                        priority=rng.randrange(0, 3),
                        idle_timeout=rng.choice([0.0, 0.5]),
                        hard_timeout=rng.choice([0.0, 1.5]),
                        created_at=now,
                    ))
                elif roll < 0.7:
                    victim = rng.choice(table.entries)
                    table.remove(victim.match,
                                 priority=victim.priority,
                                 strict=rng.random() < 0.5)
                elif roll < 0.8:
                    table.sweep_expired(now)
                else:
                    now += rng.choice([0.1, 0.4, 1.0])
                assert_coherent(table, packets, ports=(1, 2), now=now)
