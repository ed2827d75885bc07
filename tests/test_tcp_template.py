"""Property tests for :meth:`repro.net.stamp.TcpTemplate.stamp` (hypothesis).

Every TCP segment of a connection direction is stamped from its
template: the template's wire image cut to the segment's length, with the
IPv4 total length, ident and checksum and the TCP seq, ack, flags, window
and checksum patched, and no serialisation.  The vote keys on those
bytes, so a stamp must be exactly what building the segment with
:meth:`Packet.tcp` over a zero payload and serialising it gives — in its
bytes, its length, its payload and its headers — for any addresses,
ports, sequence numbers (past 2**32 too), flags, window, ident and
length up to the MSS, including the ones whose sums leave a checksum at
0.  A stamp shares the template's Ethernet header, so a write through one
stamp must reach neither the template nor another stamp.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addresses import IpAddress, MacAddress
from repro.net.layout import PacketError
from repro.net.packet import Packet
from repro.net.stamp import TcpTemplate
from repro.traffic.tcp import MSS_DEFAULT, connection_template

macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)
ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IpAddress)
ports = st.integers(min_value=0, max_value=65535)
idents = st.one_of(st.sampled_from([0, 0xFFFF]), st.integers(0, 0xFFFF))
#: a sequence or acknowledgement number past 2**32 wraps on the wire
numbers = st.one_of(
    st.sampled_from([0, (1 << 32) - 1, 1 << 32]), st.integers(0, (1 << 34) - 1)
)
flag_sets = st.integers(0, 0xFF)
windows = st.one_of(st.sampled_from([0, 0xFFFF]), st.integers(0, 0xFFFF))


@st.composite
def connections(draw):
    """A connection direction's ends and its template, over up to ``mss``
    bytes of zeros: the sender's MSS, the receiver's none, or any."""
    ends = (draw(macs), draw(macs), draw(ips), draw(ips), draw(ports), draw(ports))
    mss = draw(st.one_of(st.sampled_from([0, MSS_DEFAULT]), st.integers(0, 9000)))
    return ends, mss, connection_template(*ends, mss)


@st.composite
def segments(draw, mss):
    """What a segment sets: ident, seq, ack, flags, window, length."""
    length = draw(st.one_of(st.sampled_from([0, mss]), st.integers(0, mss)))
    return (draw(idents), draw(numbers), draw(numbers), draw(flag_sets),
            draw(windows), length)


def _reference(ends, fields):
    """The segment built as :meth:`Packet.tcp` builds it, serialised."""
    ident, seq, ack, flags, window, length = fields
    packet = Packet.tcp(
        *ends, seq=seq, ack=ack, flags=flags, window=window,
        payload=bytes(length), ident=ident,
    )
    return packet, packet._serialise()


def _view(packet):
    """Every modelled field of the packet's stack, read without
    materialising a shared header."""
    eth, vlan, ip, l4 = packet.fields()
    return (
        (eth.dst, eth.src, eth.ethertype),
        vlan,
        (ip.src, ip.dst, ip.proto, ip.ttl, ip.ident, ip.tos, ip.total_length),
        (type(l4), l4.sport, l4.dport, l4.seq, l4.ack, l4.flags, l4.window),
        packet.payload,
    )


@given(data=st.data(), connection=connections())
@settings(max_examples=400, deadline=None)
def test_a_stamp_is_the_segment_built_and_serialised(data, connection):
    ends, mss, template = connection
    fields = data.draw(segments(mss))
    stamped = template.stamp(*fields)
    reference, wire = _reference(ends, fields)
    assert stamped.to_bytes() == wire
    assert stamped.wire_len == reference.wire_len == len(wire)
    assert stamped.payload == reference.payload
    assert _view(stamped) == _view(reference)
    # a canonical frame: a parse keeps it as the image
    assert Packet.parse(wire).wire_cache() is wire


def _sums(ends, fields):
    """The sums mod 0xFFFF the reference's two checksums close (a
    checksum and the sum of what it covers add up to 0 mod 0xFFFF)."""
    _packet, wire = _reference(ends, fields)
    return (-int.from_bytes(wire[24:26], "big")) % 0xFFFF, (
        -int.from_bytes(wire[50:52], "big")
    ) % 0xFFFF


@given(data=st.data(), connection=connections())
@settings(max_examples=200, deadline=None)
def test_a_sum_of_zero_stamps_checksum_zero(data, connection):
    """An ident and a window whose words bring a sum to 0 mod 0xFFFF give
    the checksum 0, never 0xFFFF, as serialising does."""
    ends, mss, template = connection
    _ident, seq, ack, flags, _window, length = data.draw(segments(mss))
    ip_sum, tcp_sum = _sums(ends, (0, seq, ack, flags, 0, length))
    # the ident and the window that close each sum to 0
    fields = (
        (0xFFFF - ip_sum) % 0xFFFF, seq, ack, flags, (0xFFFF - tcp_sum) % 0xFFFF,
        length,
    )
    wire = template.stamp(*fields).to_bytes()
    assert wire[24:26] == wire[50:52] == b"\0\0"
    assert wire == _reference(ends, fields)[1]
    assert Packet.parse(wire).wire_cache() is wire


@given(data=st.data(), connection=connections(), dst=macs, dport=ports,
       seq=numbers, ttl_drop=st.integers(0, 1))
@settings(max_examples=150, deadline=None)
def test_a_write_through_a_stamp_stays_its_own(data, connection, dst, dport, seq,
                                               ttl_drop):
    ends, mss, template = connection
    fields = data.draw(segments(mss))
    before = _view(template.packet), template.packet.to_bytes()
    first = template.stamp(*fields)
    sibling = template.stamp(*fields)
    first.eth.dst = dst
    first.l4.dport = dport
    first.l4.seq = seq & 0xFFFFFFFF
    if ttl_drop and first.ip.ttl:
        first.decrement_ttl()
    assert first.to_bytes() == first._serialise()
    assert (_view(template.packet), template.packet.to_bytes()) == before
    reference, wire = _reference(ends, fields)
    for packet in (sibling, template.stamp(*fields)):
        assert packet.to_bytes() == packet._serialise() == wire
        assert _view(packet) == _view(reference)


def test_a_template_refuses_what_it_cannot_stamp():
    ends = (MacAddress.from_index(1), MacAddress.from_index(2),
            IpAddress.from_index(1), IpAddress.from_index(2), 40000, 5001)
    with pytest.raises(PacketError):
        TcpTemplate(Packet.udp(*ends))
    with pytest.raises(PacketError):
        TcpTemplate(Packet.tcp(*ends, payload=b"\x01"))
    with pytest.raises(PacketError):
        connection_template(*ends, 4).stamp(1, 0, 0, 0, 0, 5)
