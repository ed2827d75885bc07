"""Tests for packet headers, serialisation and the compare-relevant
identity semantics (bit-exact equality, deep copies, out-of-band meta)."""

import struct

import pytest

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import (
    ETH_TYPE_IPV4,
    ETH_TYPE_VLAN,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    TCP_ACK,
    TCP_SYN,
    Ethernet,
    Icmp,
    Ipv4,
    Packet,
    PacketError,
    Tcp,
    Udp,
    Vlan,
    internet_checksum,
)

#: any EtherType the packet layer does not parse (ARP's)
ETH_TYPE_ARP = 0x0806

M1 = MacAddress.from_index(1)
M2 = MacAddress.from_index(2)
IP1 = IpAddress("10.0.0.1")
IP2 = IpAddress("10.0.0.2")


def make_udp(payload=b"hello", ident=7, vlan=None):
    return Packet.udp(M1, M2, IP1, IP2, 1234, 5678, payload=payload, ident=ident,
                      vlan=vlan)


class TestChecksum:
    def test_rfc1071_known_vector(self):
        # classic example: header sums to 0 when checksum included
        data = bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")
        assert internet_checksum(data) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF


def frame(ip, l4_and_payload=b""):
    """An Ethernet frame around ``ip`` and the bytes it carries."""
    return (
        Ethernet(M2, M1, ETH_TYPE_IPV4).to_bytes()
        + ip.to_bytes(len(l4_and_payload))
        + l4_and_payload
    )


class TestHeaderRoundTrips:
    """Each header's encoding, read back through ``Packet.parse``."""

    def test_ethernet(self):
        eth = Ethernet(M2, M1, ETH_TYPE_ARP)
        parsed = Packet.parse(eth.to_bytes() + b"xx")
        assert parsed.eth.dst == M2 and parsed.eth.src == M1
        assert parsed.eth.ethertype == ETH_TYPE_ARP
        assert parsed.ip is None and parsed.payload == b"xx"

    def test_ethernet_truncated(self):
        with pytest.raises(PacketError):
            Packet.parse(b"\x00" * 10)

    def test_vlan(self):
        vlan = Vlan(vid=100, pcp=5)
        raw = Ethernet(M2, M1, ETH_TYPE_VLAN).to_bytes() + vlan.to_bytes(ETH_TYPE_ARP)
        parsed = Packet.parse(raw)
        assert parsed.vlan.vid == 100 and parsed.vlan.pcp == 5
        assert parsed.eth.ethertype == ETH_TYPE_ARP
        with pytest.raises(PacketError):
            Packet.parse(raw[:-1])

    def test_vlan_range_checks(self):
        with pytest.raises(PacketError):
            Vlan(4096)
        with pytest.raises(PacketError):
            Vlan(1, pcp=8)

    def test_ipv4_roundtrip_and_checksum(self):
        ip = Ipv4(IP1, IP2, 253, ttl=33, ident=999, tos=4)  # no L4 we model
        raw = ip.to_bytes(payload_len=100)
        assert internet_checksum(raw) == 0  # valid checksum
        parsed = Packet.parse(frame(ip, b"p" * 100))
        assert parsed.ip.src == IP1 and parsed.ip.dst == IP2
        assert parsed.ip.ttl == 33 and parsed.ip.ident == 999 and parsed.ip.tos == 4
        assert parsed.ip.total_length == 120
        assert parsed.l4 is None and parsed.payload == b"p" * 100

    def test_ipv4_bad_checksum_rejected(self):
        raw = bytearray(frame(Ipv4(IP1, IP2, IP_PROTO_UDP)))
        raw[14 + 8] ^= 0xFF  # corrupt TTL
        with pytest.raises(PacketError):
            Packet.parse(bytes(raw))

    def test_udp_roundtrip(self):
        ip = Ipv4(IP1, IP2, IP_PROTO_UDP)
        # ports, length and a zero ("none") checksum
        udp = struct.pack("!HHHH", 1234, 5678, 8 + len(b"payload"), 0)
        parsed = Packet.parse(frame(ip, udp + b"payload"))
        assert (parsed.l4.sport, parsed.l4.dport) == (1234, 5678)
        assert parsed.payload == b"payload"

    def test_udp_port_range(self):
        with pytest.raises(PacketError):
            Udp(65536, 1)

    def test_tcp_roundtrip(self):
        ip = Ipv4(IP1, IP2, IP_PROTO_TCP)
        tcp = Tcp(1, 2, seq=100, ack=200, flags=TCP_SYN | TCP_ACK, window=4096)
        parsed = Packet.parse(frame(ip, tcp.to_bytes(ip, b""))).l4
        assert parsed.seq == 100 and parsed.ack == 200
        assert parsed.flags & TCP_SYN and parsed.flags & TCP_ACK
        assert parsed.window == 4096

    def test_tcp_flags_str(self):
        assert Tcp(1, 2, flags=TCP_SYN | TCP_ACK).flags_str() == "SA"
        assert Tcp(1, 2).flags_str() == "."

    def test_icmp_roundtrip(self):
        ip = Ipv4(IP1, IP2, IP_PROTO_ICMP)
        icmp = Icmp(ICMP_ECHO_REQUEST, ident=7, seqno=3)
        parsed = Packet.parse(frame(ip, icmp.to_bytes(b"data") + b"data"))
        assert parsed.l4.is_echo_request
        assert parsed.l4.ident == 7 and parsed.l4.seqno == 3
        assert parsed.payload == b"data"

    def test_icmp_reply_predicates(self):
        assert Icmp(ICMP_ECHO_REPLY).is_echo_reply
        assert not Icmp(ICMP_ECHO_REPLY).is_echo_request


class TestPacket:
    def test_udp_packet_roundtrip(self):
        packet = make_udp()
        assert Packet.parse(packet.to_bytes()) == packet

    def test_tcp_packet_roundtrip(self):
        packet = Packet.tcp(M1, M2, IP1, IP2, 40000, 5001, seq=5, ack=9,
                            flags=TCP_ACK, payload=b"x" * 100)
        assert Packet.parse(packet.to_bytes()) == packet

    def test_icmp_packet_roundtrip(self):
        packet = Packet.icmp_echo(M1, M2, IP1, IP2, ident=3, seqno=9)
        assert Packet.parse(packet.to_bytes()) == packet

    def test_vlan_packet_roundtrip(self):
        packet = make_udp(vlan=Vlan(42, pcp=3))
        raw = packet.to_bytes()
        parsed = Packet.parse(raw)
        assert parsed.vlan is not None and parsed.vlan.vid == 42
        assert parsed == packet
        # the outer ethertype on the wire is the 802.1Q TPID
        assert raw[12:14] == ETH_TYPE_VLAN.to_bytes(2, "big")

    def test_wire_len_matches_serialisation(self):
        for packet in (
            make_udp(payload=b"x" * 321),
            make_udp(vlan=Vlan(9)),
            Packet.tcp(M1, M2, IP1, IP2, 1, 2, payload=b"y" * 10),
            Packet.icmp_echo(M1, M2, IP1, IP2, 1, 1, payload=b"z" * 56),
            Packet(Ethernet(M2, M1, 0x88B5), payload=b"raw"),
        ):
            assert packet.wire_len == len(packet.to_bytes())

    def test_equality_is_bitwise(self):
        a, b = make_udp(ident=1), make_udp(ident=1)
        assert a == b and hash(a) == hash(b)
        c = make_udp(ident=2)  # different IP ident -> different bits
        assert a != c

    def test_payload_difference_changes_identity(self):
        assert make_udp(payload=b"aaaa") != make_udp(payload=b"aaab")

    def test_copy_is_deep(self):
        original = make_udp()
        dup = original.copy()
        dup.eth.src = M2
        dup.ip.ttl = 1
        assert original.eth.src == M1
        assert original.ip.ttl == 64
        assert original != dup

    def test_copy_preserves_equality_before_mutation(self):
        original = make_udp(vlan=Vlan(5))
        assert original.copy() == original

    def test_meta_not_part_of_identity_or_copy(self):
        packet = make_udp()
        packet.meta = {"branch": 2}
        other = make_udp()
        assert packet == other
        assert packet.copy().meta is None

    def test_transport_requires_ip(self):
        with pytest.raises(PacketError):
            Packet(Ethernet(M2, M1), l4=Udp(1, 2))

    def test_non_ip_packet_roundtrip(self):
        packet = Packet(Ethernet(M2, M1, 0x88B5), payload=b"opaque")
        parsed = Packet.parse(packet.to_bytes())
        assert parsed.payload == b"opaque"
        assert parsed.ip is None

    def test_summary_mentions_addresses(self):
        text = make_udp().summary()
        assert "10.0.0.1" in text and "10.0.0.2" in text
