"""Sender-side frames: stamp each packet of a flow from a template.

A CBR datagram differs from its flow's others only in its IPv4 ident and
payload head, a TCP segment from its connection's in a few header words,
so :class:`UdpTemplate` and :class:`TcpTemplate` stamp each from a
template frame serialised once: a patched copy of its image, the
template's Ethernet header shared (no checksum pass), bit-identical to the
:class:`~repro.net.packet.Packet` built and serialised.
:class:`PacketBatch` carries a train of a UDP flow's stamps through the
batch tier.  Only the traffic sources (``traffic.udp``, ``traffic.tcp``,
the live demo's sender) import this module: no trusted element stamps.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.net.layout import (
    IPV4_HEADER_LEN,
    TCP_HEADER_LEN,
    UDP_HEADER_LEN,
    PacketError,
)
from repro.net.packet import _COW_ETH, _COW_L4, _COW_VLAN, Ipv4, Packet, Tcp, Udp

# UdpTemplate.stamp writes a datagram's four changed fields in one pack
# around the template bytes between them: the ident, flags to protocol,
# the IPv4 checksum, addresses to UDP length, the UDP checksum
_STAMP = struct.Struct("!H4sH14sH").pack
# TcpTemplate.stamp packs a segment's IPv4 header from its total length
# on and its TCP header: ident, fragment word to protocol, checksum, ends,
# seq, ack, data offset, flags, window, checksum and a zero urgent pointer
_TCP_STAMP = struct.Struct("!HH4sH12sIIBBHH2x").pack
_new = object.__new__


class _FrameTemplate:
    """What a UDP and a TCP template share: the frame, serialised once,
    whose headers its stamps share copy-on-write (marked shared, so a write
    through a stamp materialises a private header and reaches neither the
    template nor a sibling stamp), and the IPv4 half of a stamp.  A
    checksum is the ones-complement of the sum mod 0xFFFF of what it covers
    (:func:`~repro.net.packet.internet_checksum`): the template keeps its IPv4 header's sum
    without the total length and ident, and a stamp adds its own.  A sum of
    0 gives the checksum 0, never 0xFFFF, as :func:`~repro.net.packet.internet_checksum`
    does: no header sums to a true zero (the version byte, the protocol).
    ``packet``, the template frame, is read for its headers, never sent.
    """

    __slots__ = ("packet", "_eth", "_vlan", "_ip", "_l4", "_hlen", "_wire_len",
                 "_snap", "_cow", "_wire", "_at", "_ip_sum")

    def __init__(self, packet: Packet, l4_type: type, l4_len: int) -> None:
        eth, vlan, ip, l4 = packet.fields()
        if ip is None or type(l4) is not l4_type:
            name = l4_type.__name__.upper()
            raise PacketError(f"a {name} template needs an IPv4/{name} frame")
        wire = packet.to_bytes()
        for header in (eth, vlan, ip, l4):
            if header is not None:
                object.__setattr__(header, "_shared", True)
        self.packet = packet
        self._eth, self._vlan, self._ip, self._l4 = eth, vlan, ip, l4
        self._hlen = hlen = packet._hlen
        self._wire_len = packet.wire_len
        self._wire = wire
        # a stamp's own IPv4 header is new, at version 0
        self._snap = (eth._v, -1 if vlan is None else vlan._v, 0, l4._v)
        self._cow = _COW_ETH | _COW_L4 | (0 if vlan is None else _COW_VLAN)
        self._at = at = hlen - l4_len - IPV4_HEADER_LEN  # the IPv4 header
        # a checksum and the sum of what it covers add up to 0 mod 0xFFFF
        check = int.from_bytes(wire[at + 10 : at + 12], "big")
        self._ip_sum = (-check - ip.total_length - ip.ident) % 0xFFFF

    def _stamped(self, ident: int, total_length: int) -> tuple:
        """A stamp but for its image: the packet, with a new IPv4 header
        carrying the 16-bit ``ident`` and ``total_length`` and the
        template's other headers, and that header's checksum."""
        template = self._ip
        # built as Packet.parse builds headers: fields as they are
        s = object.__setattr__
        ip = _new(Ipv4)
        s(ip, "_shared", False)
        s(ip, "_v", 0)
        s(ip, "src", template.src)
        s(ip, "dst", template.dst)
        s(ip, "proto", template.proto)
        s(ip, "ttl", template.ttl)
        s(ip, "ident", ident)
        s(ip, "tos", template.tos)
        s(ip, "total_length", total_length)
        packet = _new(Packet)
        packet._eth = self._eth
        packet._vlan = self._vlan
        packet._ip = ip
        packet._l4 = self._l4
        packet._payload = None
        packet._hlen = self._hlen
        packet.wire_len = self._wire_len
        packet._snap = self._snap
        packet._cow = self._cow
        packet.meta = None
        packet.trace_id = None
        ip_sum = (self._ip_sum + total_length + ident) % 0xFFFF
        return packet, 0xFFFF - ip_sum if ip_sum else 0


class UdpTemplate(_FrameTemplate):
    """One UDP flow's frame, from which each datagram is stamped.

    A CBR source's datagrams are one frame but for the IPv4 ident and the
    payload head (seq and timestamp).  :meth:`stamp` makes each with a new
    :class:`Ipv4` header, the other headers shared, and the template's
    image with the ident, the head and both checksums patched: no other
    header built, no checksum pass, and bit-identical to :meth:`Packet.udp`
    serialised.  The template keeps the sum its UDP checksum covers; a
    stamp takes the template head's words from it and adds the new head's
    (the head starts word-aligned; an odd-length one ends in the high byte
    of a word).
    """

    __slots__ = ("_front", "_flags", "_addrs", "_udp_sum", "_head_len",
                 "_shift", "_base", "_tail")

    def __init__(self, packet: Packet) -> None:
        super().__init__(packet, Udp, UDP_HEADER_LEN)
        wire, at = self._wire, self._at
        self._front = wire[: at + 4]
        self._flags = wire[at + 6 : at + 10]
        self._addrs = wire[at + 12 : at + 26]
        self._udp_sum = -int.from_bytes(wire[at + 26 : at + 28], "big") % 0xFFFF
        self._fit(0)

    def _fit(self, head_len: int) -> None:
        """Ready :meth:`stamp` for heads of ``head_len`` bytes: the UDP sum
        without the template head's words, and the payload behind it."""
        hlen = self._hlen
        if head_len > self._wire_len - hlen:
            raise PacketError("payload head longer than template payload")
        self._shift = 8 if head_len & 1 else 0
        old = int.from_bytes(self._wire[hlen : hlen + head_len], "big") << self._shift
        self._base = (self._udp_sum - old) % 0xFFFF
        self._tail = self._wire[hlen + head_len :]
        self._head_len = head_len

    def stamp(self, ident: int, head: bytes) -> Packet:
        """The flow's datagram with IPv4 ident ``ident`` whose payload
        starts with ``head``."""
        if len(head) != self._head_len:
            self._fit(len(head))
        ident &= 0xFFFF
        packet, ip_check = self._stamped(ident, self._wire_len - self._at)
        udp_sum = (self._base + (int.from_bytes(head, "big") << self._shift)) % 0xFFFF
        packet._wire = b"".join((
            self._front,
            _STAMP(ident, self._flags, ip_check, self._addrs,
                   0xFFFF - udp_sum if udp_sum else 0),
            head,
            self._tail,
        ))
        return packet


class TcpTemplate(_FrameTemplate):
    """One TCP connection direction's frame, from which each segment is
    stamped.

    Its segments differ in the IPv4 ident, the seq, ack, flags and window,
    and the payload length; the payload is zeros (the iperf-style stream),
    up to the template's, the longest segment it stamps (the MSS; none for
    a receiver).  :meth:`stamp` makes each with new :class:`Ipv4` and
    :class:`Tcp` headers, the Ethernet header shared, and the template's
    image cut to length with those fields, the IPv4 total length and both
    checksums patched: bit-identical to :meth:`Packet.tcp` serialised.  The
    template keeps the sum its TCP checksum covers without the words a
    stamp writes, which adds them back: zeros add nothing, and a 32-bit
    number adds as its two words (``2**16 ≡ 1 (mod 0xFFFF)``).
    """

    __slots__ = ("_front", "_mid", "_ends", "_tcp_sum", "_zeros")

    def __init__(self, packet: Packet) -> None:
        super().__init__(packet, Tcp, TCP_HEADER_LEN)
        tcp, payload = packet.fields()[3], packet.payload
        if payload.count(0) != len(payload):
            raise PacketError("a TCP template's payload is zeros")
        wire, at = self._wire, self._at
        self._front = wire[: at + 2]  # Ethernet [VLAN], version/IHL, TOS
        self._mid = wire[at + 6 : at + 10]  # fragment word, TTL, protocol
        self._ends = wire[at + 12 : at + 24]  # addresses and ports
        self._zeros = payload
        check = int.from_bytes(wire[at + 36 : at + 38], "big")
        self._tcp_sum = (
            -check - (TCP_HEADER_LEN + len(payload))
            - tcp.seq - tcp.ack - tcp.flags - tcp.window
        ) % 0xFFFF
        # every stamp builds its own TCP header: none is shared
        self._snap = self._snap[:3] + (0,)
        self._cow &= ~_COW_L4

    def stamp(
        self, ident: int, seq: int, ack: int, flags: int, window: int, length: int
    ) -> Packet:
        """The connection's segment with these fields and ``length`` zero
        bytes of payload."""
        if length > len(self._zeros):
            raise PacketError("segment longer than the template payload")
        ident &= 0xFFFF
        seq, ack = seq & 0xFFFFFFFF, ack & 0xFFFFFFFF
        window &= 0xFFFF
        segment = TCP_HEADER_LEN + length
        packet, ip_check = self._stamped(ident, IPV4_HEADER_LEN + segment)
        tcp_sum = (self._tcp_sum + segment + seq + ack + flags + window) % 0xFFFF
        template = self._l4
        s = object.__setattr__
        tcp = _new(Tcp)
        s(tcp, "_shared", False)
        s(tcp, "_v", 0)
        s(tcp, "sport", template.sport)
        s(tcp, "dport", template.dport)
        s(tcp, "seq", seq)
        s(tcp, "ack", ack)
        s(tcp, "flags", flags)
        s(tcp, "window", window)
        packet._l4 = tcp
        packet.wire_len = self._hlen + length
        packet._wire = b"".join((
            self._front,
            _TCP_STAMP(IPV4_HEADER_LEN + segment, ident, self._mid, ip_check,
                       self._ends, seq, ack, 0x50, flags, window,
                       0xFFFF - tcp_sum if tcp_sum else 0),
            self._zeros[:length],
        ))
        return packet


class PacketBatch:
    """A packet train: one flow template plus per-packet deltas.

    Batches carry the N packets of a CBR train through the data plane as
    one object.  Packet ``i`` is the flow's :class:`UdpTemplate` stamped
    with ``idents[i]`` and ``heads[i]`` (for UDP trains: the 12-byte
    seq/timestamp head), so every packet of a train, packet 0 included,
    is bit-identical to serialising it from scratch (property-tested in
    ``tests/test_packet_batch.py``) and shares only headers a write
    materialises.  ``template`` is the flow's template frame, which the
    train's stages read for its headers; it is none of the train's packets.

    ``seqs``/``ts_ns`` are opaque traffic-layer annotations (the decoded
    form of the head bytes) so receivers can do per-seq accounting
    without parsing payloads.  :meth:`packet_at` stamps a packet wherever
    the pipeline must fall back to per-packet handling.
    """

    __slots__ = (
        "flow",
        "template",
        "count",
        "heads",
        "idents",
        "seqs",
        "ts_ns",
        "wire_len",
        "_packets",
    )

    def __init__(
        self,
        flow: UdpTemplate,
        heads: List[bytes],
        idents: List[int],
        seqs: Optional[List[int]] = None,
        ts_ns: Optional[List[int]] = None,
    ) -> None:
        count = len(heads)
        if count < 1:
            raise PacketError("empty packet batch")
        if len(idents) != count:
            raise PacketError("idents/heads length mismatch")
        template = flow.packet
        room = template.wire_len - template._hlen
        for head in heads:
            if len(head) > room:
                raise PacketError("payload head longer than template payload")
        self.flow = flow
        self.template = template
        self.count = count
        self.heads = heads
        self.idents = idents
        self.seqs = seqs
        self.ts_ns = ts_ns
        self.wire_len = template.wire_len
        self._packets: Optional[List[Optional[Packet]]] = None

    def wire_buffer(self) -> bytes:
        """The wire images of the train's packets, back to back."""
        return b"".join([packet.to_bytes() for packet in self.packets()])

    def packet_at(self, i: int) -> Packet:
        """Packet ``i``, stamped on first use (memoised)."""
        pkts = self._packets
        if pkts is None:
            pkts = self._packets = [None] * self.count
        pkt = pkts[i]
        if pkt is None:
            pkt = pkts[i] = self.flow.stamp(self.idents[i], self.heads[i])
        return pkt

    def packets(self) -> List[Packet]:
        """Every packet of the train, in order."""
        return [self.packet_at(i) for i in range(self.count)]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"PacketBatch({self.count}x {self.template.summary()})"
