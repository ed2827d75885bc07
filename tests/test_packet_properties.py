"""Property-based tests for the packet layer (hypothesis).

These guard the invariants the compare element relies on: serialisation
is deterministic and injective enough (parse∘serialise = identity),
copies are bit-identical until mutated, and ``Packet.parse`` keeps the
bytes it was given only when serialising the parsed headers would rebuild
exactly them — so no frame, however mangled, votes under a different key
than a parse that always re-serialises.
"""

import struct
import sys
from array import array

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import (
    ETH_TYPE_IPV4,
    ETH_TYPE_VLAN,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
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

macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)
ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IpAddress)
ports = st.integers(min_value=0, max_value=65535)
payloads = st.binary(max_size=256)
idents = st.integers(min_value=0, max_value=0xFFFF)


@st.composite
def udp_packets(draw):
    vlan = draw(st.one_of(st.none(), st.integers(0, 4095).map(Vlan)))
    return Packet.udp(
        draw(macs), draw(macs), draw(ips), draw(ips),
        draw(ports), draw(ports), payload=draw(payloads),
        ident=draw(idents), vlan=vlan,
    )


@st.composite
def tcp_packets(draw):
    flags = draw(
        st.sets(st.sampled_from([TCP_SYN, TCP_ACK, TCP_FIN, TCP_PSH])).map(
            lambda s: sum(s)
        )
    )
    return Packet.tcp(
        draw(macs), draw(macs), draw(ips), draw(ips),
        draw(ports), draw(ports),
        seq=draw(st.integers(0, (1 << 32) - 1)),
        ack=draw(st.integers(0, (1 << 32) - 1)),
        flags=flags,
        window=draw(st.integers(0, 65535)),
        payload=draw(payloads),
        ident=draw(idents),
    )


@st.composite
def icmp_packets(draw):
    return Packet.icmp_echo(
        draw(macs), draw(macs), draw(ips), draw(ips),
        ident=draw(idents), seqno=draw(idents),
        reply=draw(st.booleans()), payload=draw(payloads),
        ip_ident=draw(idents),
    )


any_packet = st.one_of(udp_packets(), tcp_packets(), icmp_packets())


@given(any_packet)
@settings(max_examples=120)
def test_parse_roundtrip(packet):
    assert Packet.parse(packet.to_bytes()) == packet


@given(any_packet)
@settings(max_examples=120)
def test_wire_len_equals_serialised_length(packet):
    assert packet.wire_len == len(packet.to_bytes())


@given(any_packet)
@settings(max_examples=80)
def test_serialisation_is_deterministic(packet):
    assert packet.to_bytes() == packet.to_bytes()


@given(any_packet)
@settings(max_examples=80)
def test_copy_is_bit_identical(packet):
    assert packet.copy().to_bytes() == packet.to_bytes()


@given(any_packet)
@settings(max_examples=80)
def test_ip_header_checksum_valid_on_wire(packet):
    raw = packet.to_bytes()
    offset = 14 + (4 if packet.vlan is not None else 0)
    assert internet_checksum(raw[offset : offset + 20]) == 0


@given(udp_packets(), st.integers(0, 255), st.integers(0, 5000))
@settings(max_examples=80)
def test_payload_mutation_changes_bytes(packet, xor, pos):
    if not packet.payload:
        return
    mutated = packet.copy()
    idx = pos % len(mutated.payload)
    flipped = bytearray(mutated.payload)
    flipped[idx] ^= xor
    mutated.payload = bytes(flipped)
    if xor == 0:
        assert mutated == packet
    else:
        assert mutated != packet


@given(st.binary(max_size=64))
@settings(max_examples=60)
def test_checksum_self_verifies(data):
    checksum = internet_checksum(data)
    if len(data) % 2:
        data += b"\x00"
    assert internet_checksum(data + checksum.to_bytes(2, "big")) == 0


# ----------------------------------------------------------------------
# the checksum kernel against the word-sum it replaced
# ----------------------------------------------------------------------
def reference_checksum(data):
    """RFC 1071 as a sum of native 16-bit words, byte-swapped once."""
    if len(data) & 1:
        data = data + b"\x00"
    total = sum(array("H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    if sys.byteorder == "little":
        total = ((total & 0xFF) << 8) | (total >> 8)
    return (~total) & 0xFFFF


@given(st.one_of(
    st.binary(max_size=64),
    st.binary(min_size=1400, max_size=1600),
    st.integers(0, 1600).map(bytes),                   # all-zero
    st.integers(0, 1600).map(lambda n: b"\xff" * n),   # every word the other zero
), st.integers(0, 800))
@settings(max_examples=400)
def test_checksum_equals_word_sum(data, words):
    assert internet_checksum(data) == reference_checksum(data)
    # an even-length header and the tail behind it, summed apart
    head = 2 * min(words, len(data) // 2)
    assert internet_checksum(data[:head], data[head:]) == reference_checksum(data)


# ----------------------------------------------------------------------
# parse keeps the received bytes only when re-serialising would rebuild them
# ----------------------------------------------------------------------
def reference_parse(data):
    """Parse as the per-header readers did before ``Packet.parse`` became
    one pass: lenient, built through the public constructors, and never
    keeping ``data`` — the wire image is always re-serialised."""

    def need(rest, size, what):
        if len(rest) < size:
            raise PacketError(f"truncated {what}")

    need(data, 14, "Ethernet header")
    ethertype = int.from_bytes(data[12:14], "big")
    eth = Ethernet(MacAddress(data[0:6]), MacAddress(data[6:12]), ethertype)
    rest = data[14:]
    vlan = None
    if ethertype == ETH_TYPE_VLAN:
        need(rest, 4, "VLAN tag")
        tci, inner = struct.unpack("!HH", rest[:4])
        vlan = Vlan(vid=tci & 0x0FFF, pcp=tci >> 13)
        eth.ethertype = inner
        rest = rest[4:]
    if eth.ethertype != ETH_TYPE_IPV4:
        return Packet(eth, payload=rest, vlan=vlan)
    need(rest, 20, "IPv4 header")
    (ver_ihl, tos, total_length, ident, _frag, ttl, proto, _checksum, src, dst
     ) = struct.unpack("!BBHHHBBH4s4s", rest[:20])
    if ver_ihl >> 4 != 4:
        raise PacketError("not IPv4")
    if reference_checksum(rest[:20]) != 0:
        raise PacketError("bad IPv4 header checksum")
    ip = Ipv4(IpAddress(src), IpAddress(dst), proto, ttl=ttl, ident=ident, tos=tos)
    ip.total_length = total_length
    rest = rest[20:][: total_length - 20]
    l4, payload = None, rest
    if proto == IP_PROTO_UDP:
        need(rest, 8, "UDP header")
        sport, dport, length, _checksum = struct.unpack("!HHHH", rest[:8])
        if length < 8 or length > len(rest):
            raise PacketError("bad UDP length")
        l4, payload = Udp(sport, dport), rest[8:length]
    elif proto == IP_PROTO_TCP:
        need(rest, 20, "TCP header")
        sport, dport, seq, ack, offset_byte, flags, window, _checksum, _urgent = (
            struct.unpack("!HHIIBBHHH", rest[:20])
        )
        data_offset = (offset_byte >> 4) * 4
        if data_offset < 20 or data_offset > len(rest):
            raise PacketError("bad TCP data offset")
        l4 = Tcp(sport, dport, seq=seq, ack=ack, flags=flags, window=window)
        payload = rest[data_offset:]
    elif proto == IP_PROTO_ICMP:
        need(rest, 8, "ICMP header")
        icmp_type, code, _checksum, ident, seqno = struct.unpack("!BBHHH", rest[:8])
        l4, payload = Icmp(icmp_type, code, ident, seqno), rest[8:]
    return Packet(eth, ip, l4, payload, vlan=vlan)


@st.composite
def tagged(draw, packets):
    """``packets``, half of them behind an 802.1Q tag."""
    packet = draw(packets)
    if draw(st.booleans()):
        packet.vlan = Vlan(draw(st.integers(0, 4095)), draw(st.integers(0, 7)))
    return packet


frames = tagged(any_packet).map(lambda packet: packet.to_bytes())
#: byte values the serialiser writes into fields the headers do not model
STAMPS = st.sampled_from([0x00, 0xFF, 0x45, 0x46, 0x50, 0x60, 0x81, 0x08, 0x10, 0x40])


def repaired(frame, ip=True, l4=True):
    """``frame`` (a bytearray) with its IPv4 header and/or L4 checksum
    made right again in place, wherever it is long enough to have one."""
    off = 18 if frame[12:14] == b"\x81\x00" else 14
    if ip and len(frame) >= off + 20:
        frame[off + 10 : off + 12] = b"\x00\x00"
        checksum = reference_checksum(bytes(frame[off : off + 20]))
        frame[off + 10 : off + 12] = checksum.to_bytes(2, "big")
    at = {IP_PROTO_UDP: 6, IP_PROTO_TCP: 16, IP_PROTO_ICMP: 2}.get(
        frame[off + 9] if len(frame) > off + 9 else None
    )
    if l4 and at is not None and len(frame) >= off + 22 + at:
        segment = frame[off + 20 :]
        segment[at : at + 2] = b"\x00\x00"
        pseudo = b"" if at == 2 else (
            frame[off + 12 : off + 20]
            + struct.pack("!BBH", 0, frame[off + 9], len(segment))
        )
        checksum = reference_checksum(bytes(pseudo + segment))
        frame[off + 20 + at : off + 22 + at] = checksum.to_bytes(2, "big")
    return frame


@st.composite
def mutated_frames(draw):
    """A serialised frame, then bit-flipped, byte-stamped, truncated or
    padded; half the time the IPv4 header checksum is repaired afterwards,
    and half the time the L4 one, so that edits inside a header get past
    its verification as an adversary's would."""
    frame = bytearray(draw(frames))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["flip", "stamp", "truncate", "pad"]))
        if kind == "truncate":
            del frame[draw(st.integers(0, len(frame))):]
        elif kind == "pad":
            frame += draw(st.binary(min_size=1, max_size=9))
        elif frame:
            # most edits land in the headers, where the rules are
            at = draw(st.integers(0, min(len(frame), 64) - 1))
            if kind == "flip":
                frame[at] ^= 1 << draw(st.integers(0, 7))
            else:
                frame[at] = draw(STAMPS)
    return bytes(repaired(frame, ip=draw(st.booleans()), l4=draw(st.booleans())))


@given(mutated_frames())
@settings(max_examples=1500, deadline=None)
def test_parse_votes_on_the_bytes_the_reference_rebuilds(data):
    try:
        reference = reference_parse(data)
    except PacketError:
        with pytest.raises(PacketError):
            Packet.parse(data)
        return
    parsed = Packet.parse(data)
    kept = parsed.wire_cache()
    if kept is not None:
        assert kept is data and parsed.wire_len == len(data)
    assert parsed.to_bytes() == reference._serialise()
    assert parsed.wire_len == reference.wire_len
    assert parsed._snapshot() == reference._snapshot()
    assert [repr(h) for h in parsed.fields()] == [repr(h) for h in reference.fields()]
    assert parsed.payload == reference.payload


@given(frames, st.integers(1, 3), macs)
@settings(max_examples=200)
def test_kept_image_survives_copy_and_rewrites(data, ttl_drop, new_mac):
    """A parsed packet holding the received bytes behaves, through the
    cache-patching TTL decrement and a header write, like a twin that
    serialises from scratch."""
    kept, twin = Packet.parse(data), reference_parse(data)
    # The one canonical frame parse declines: the all-zero ICMP message is
    # the only checksum the serialiser writes as 0xFFFF, and parse keeps
    # no frame with a stored 0xFFFF (it re-serialises to the same bytes).
    icmp = twin.l4 if isinstance(twin.l4, Icmp) else None
    assume(icmp is None or any(
        (icmp.icmp_type, icmp.code, icmp.ident, icmp.seqno, *twin.payload)
    ))
    assert kept.wire_cache() is data and twin.wire_cache() is None
    assert kept.wire_len == len(data)
    assert kept.copy().to_bytes() == data
    for packet in (kept, twin):
        if packet.ip is not None and packet.ip.ttl >= ttl_drop:
            packet.decrement_ttl(ttl_drop)
    assert kept.wire_cache() is not None  # patched in place, not dropped
    for packet in (kept, twin):
        packet.eth.src = new_mac
    assert kept.to_bytes() == twin.to_bytes() == kept._serialise()
    assert kept.copy().to_bytes() == twin.to_bytes()


def _find(build, zero_at):
    """The first ``build(n)`` whose serialised checksum at ``zero_at`` is 0."""
    for n in range(1 << 16):
        wire = build(n).to_bytes()
        if wire[zero_at : zero_at + 2] == b"\x00\x00":
            return wire
    raise AssertionError("no packet with a zero checksum found")


@pytest.mark.parametrize("zero_at, build", [
    (24, lambda n: Packet.udp(MacAddress(1), MacAddress(2), IpAddress(1),
                              IpAddress(2), 5, 6, payload=b"ab", ident=n)),
    (40, lambda n: Packet.udp(MacAddress(1), MacAddress(2), IpAddress(1),
                              IpAddress(2), 5, 6, payload=n.to_bytes(2, "big"))),
    (36, lambda n: Packet.icmp_echo(MacAddress(1), MacAddress(2), IpAddress(1),
                                    IpAddress(2), ident=n, seqno=1)),
], ids=["ipv4", "udp", "icmp"])
def test_other_ones_complement_zero_is_not_kept(zero_at, build):
    """0xFFFF where the serialiser writes 0x0000 still verifies — both are
    zero in ones-complement — but re-serialising would not rebuild it."""
    wire = _find(build, zero_at)
    assert Packet.parse(wire).wire_cache() is wire
    other = wire[:zero_at] + b"\xff\xff" + wire[zero_at + 2 :]
    parsed = Packet.parse(other)
    assert parsed.wire_cache() is None
    assert parsed.to_bytes() == wire


_A, _B = (MacAddress(1), MacAddress(2)), (IpAddress(1), IpAddress(2))
_UDP = Packet.udp(*_A, *_B, 5, 6, payload=b"abcd")
_TCP = Packet.tcp(*_A, *_B, 5, 6, seq=1, ack=2, payload=b"abcdefgh")
_VLAN = Packet.udp(*_A, *_B, 5, 6, payload=b"abcd", vlan=Vlan(7, pcp=3))


@pytest.mark.parametrize("packet, at, value, tail", [
    (_VLAN, 14, 0x70 | 0x10, b""),     # 802.1Q DEI bit
    (_UDP, 14, 0x46, b""),             # IPv4 IHL the serialiser never writes
    (_UDP, 20, 0x40, b""),             # don't-fragment
    (_UDP, 17, 32 + 2, b""),           # total_length past the frame
    (_UDP, 39, 12 - 2, b""),           # UDP length short of the segment
    (_UDP, 0, 0x02, b"\x00\x00"),      # Ethernet padding behind the datagram
    (_TCP, 46, 0x51, b""),             # TCP reserved bits
    (_TCP, 46, 0x60, b""),             # TCP options the header does not model
    (_TCP, 53, 0x01, b""),             # TCP urgent pointer
], ids=["dei", "ihl", "df", "ip-long", "udp-short", "padding",
        "tcp-reserved", "tcp-options", "tcp-urgent"])
def test_unmodelled_fields_are_not_kept(packet, at, value, tail):
    """A field the headers drop, set by a sender who then makes both
    checksums right again: it parses, and votes as its normalised self."""
    wire = packet.to_bytes()
    assert Packet.parse(wire).wire_cache() is wire
    frame = bytearray(wire) + tail
    frame[at] = value
    data = bytes(repaired(frame))
    assert data != wire
    parsed = Packet.parse(data)
    assert parsed.wire_cache() is None
    assert parsed.to_bytes() == reference_parse(data)._serialise() != data


def test_only_immutable_bytes_are_kept():
    wire = Packet.udp(MacAddress(1), MacAddress(2), IpAddress(1), IpAddress(2),
                      5, 6, payload=b"abc").to_bytes()
    parsed = Packet.parse(bytearray(wire))
    assert parsed.wire_cache() is None and parsed.to_bytes() == wire
