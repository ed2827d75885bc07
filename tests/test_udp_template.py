"""Property tests for :meth:`repro.net.stamp.UdpTemplate.stamp` (hypothesis).

Every CBR datagram is stamped from its flow's template: the template's
wire image with the IPv4 ident, the IPv4 checksum, the payload head and
the UDP checksum patched, and no serialisation.  The vote keys on those
bytes, so a stamp must be exactly what building the datagram with
:meth:`Packet.udp` and serialising it gives — in its bytes, its length,
its payload and its headers — for any addresses, ports, payload size
(odd ones too), ident and head, including the heads and idents whose
sums leave a checksum at 0.  A stamp shares the template's Ethernet and
UDP headers, so a write through one stamp must reach neither the
template nor another stamp.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.net.stamp import UdpTemplate
from repro.traffic.udp import cbr_head, cbr_template

macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)
ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IpAddress)
ports = st.integers(min_value=0, max_value=65535)
idents = st.one_of(st.sampled_from([0, 0xFFFF]), st.integers(0, 0xFFFF))
#: a sequence number past 2**32 wraps on the wire
seqs = st.one_of(
    st.sampled_from([0, (1 << 32) - 1, 1 << 32]), st.integers(0, (1 << 34) - 1)
)
#: send times in seconds; 0 is the live demo's
nows = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4))


@st.composite
def flows(draw):
    """A flow's addresses and ports, its payload, and its template: the
    CBR sender's (a zero payload) or one over arbitrary payload bytes."""
    ends = (draw(macs), draw(macs), draw(ips), draw(ips), draw(ports), draw(ports))
    size = draw(st.one_of(st.integers(12, 64), st.integers(12, 9000)))
    if draw(st.booleans()):
        return ends, bytes(size), cbr_template(*ends, size)
    body = random.Random(draw(st.integers(0, 1 << 32))).randbytes(size)
    ttl = draw(st.integers(0, 255))
    template = Packet.udp(*ends, payload=body, ttl=ttl, ident=draw(idents))
    return ends, body, UdpTemplate(template)


def _reference(ends, body, flow, ident, head):
    """The datagram built as :meth:`Packet.udp` builds it, serialised."""
    packet = Packet.udp(
        *ends, payload=head + body[len(head):], ttl=flow.packet.fields()[2].ttl,
        ident=ident,
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
        (type(l4), l4.sport, l4.dport),
        packet.payload,
    )


@given(flow=flows(), ident=idents, seq=seqs, now=nows)
@settings(max_examples=300, deadline=None)
def test_a_stamp_is_the_datagram_built_and_serialised(flow, ident, seq, now):
    ends, body, template = flow
    head = cbr_head(seq, now)
    stamped = template.stamp(ident, head)
    reference, wire = _reference(ends, body, template, ident, head)
    assert stamped.to_bytes() == wire
    assert stamped.wire_len == reference.wire_len == len(wire)
    assert stamped.payload == reference.payload
    assert _view(stamped) == _view(reference)
    # a canonical frame: a parse keeps it as the image
    assert Packet.parse(stamped.to_bytes()).wire_cache() is stamped.to_bytes()


@given(flow=flows(), ident=idents, head=st.binary(min_size=0, max_size=17))
@settings(max_examples=200, deadline=None)
def test_any_head_length_stamps_exactly(flow, ident, head):
    """Odd head lengths end in the high byte of a word; a short head
    leaves the template's payload behind it."""
    ends, body, template = flow
    head = head[: len(body)]
    reference, wire = _reference(ends, body, template, ident, head)
    assert template.stamp(ident, head).to_bytes() == wire


def _sum_with(ends, body, template, ident, head):
    """The sums mod 0xFFFF the reference's two checksums close (a
    checksum and the sum of what it covers add up to 0 mod 0xFFFF)."""
    _packet, wire = _reference(ends, body, template, ident, head)
    return (-int.from_bytes(wire[24:26], "big")) % 0xFFFF, (
        -int.from_bytes(wire[40:42], "big")
    ) % 0xFFFF


@given(flow=flows(), ident=idents, prefix=st.binary(min_size=10, max_size=10))
@settings(max_examples=200, deadline=None)
def test_a_sum_of_zero_stamps_checksum_zero(flow, ident, prefix):
    """A head and an ident whose words bring a sum to 0 mod 0xFFFF give
    the checksum 0, never 0xFFFF, as serialising does."""
    ends, body, template = flow
    ip_sum, udp_sum = _sum_with(ends, body, template, 0, prefix + b"\0\0")
    # the last head word, and the ident, that close each sum to 0
    head = prefix + ((0xFFFF - udp_sum) % 0xFFFF).to_bytes(2, "big")
    ident = (0xFFFF - ip_sum) % 0xFFFF
    stamped = template.stamp(ident, head)
    wire = stamped.to_bytes()
    assert wire[24:26] == wire[40:42] == b"\0\0"
    assert wire == _reference(ends, body, template, ident, head)[1]
    assert Packet.parse(wire).wire_cache() is wire


@given(
    flow=flows(),
    ident=idents,
    seq=seqs,
    dst=macs,
    dport=ports,
    ttl_drop=st.integers(0, 1),
)
@settings(max_examples=150, deadline=None)
def test_a_write_through_a_stamp_stays_its_own(flow, ident, seq, dst, dport, ttl_drop):
    ends, body, template = flow
    before = _view(template.packet), template.packet.to_bytes()
    first = template.stamp(ident, cbr_head(seq, 0.0))
    sibling = template.stamp(ident, cbr_head(seq + 1, 0.0))
    first.eth.dst = dst
    first.l4.dport = dport
    if ttl_drop and first.ip.ttl:
        first.decrement_ttl()
    assert first.to_bytes() == first._serialise()
    assert (_view(template.packet), template.packet.to_bytes()) == before
    for packet, at in ((sibling, seq + 1), (template.stamp(ident, cbr_head(seq, 0.0)), seq)):
        reference, wire = _reference(ends, body, template, ident, cbr_head(at, 0.0))
        assert packet.to_bytes() == packet._serialise() == wire
        assert _view(packet) == _view(reference)
