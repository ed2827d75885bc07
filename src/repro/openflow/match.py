"""OpenFlow 1.0 match structure (the 12-tuple, with wildcards).

A field set to ``None`` is wildcarded.  This covers the full OF 1.0 match
set; the paper's prototype only matches ``dl_dst``, but the learning
switch, the case-study pipelines and the virtualized NetCo use more.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import (
    ETH_TYPE_IPV4,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Icmp,
    Packet,
    Tcp,
    Udp,
)

# Protocols whose tp_src/tp_dst fields carry meaning in OF 1.0.
_TP_PROTOS = (IP_PROTO_ICMP, IP_PROTO_TCP, IP_PROTO_UDP)


class Match:
    """An OF 1.0 flow match; ``None`` fields are wildcards."""

    __slots__ = (
        "in_port",
        "dl_src",
        "dl_dst",
        "dl_vlan",
        "dl_vlan_pcp",
        "dl_type",
        "nw_tos",
        "nw_proto",
        "nw_src",
        "nw_dst",
        "tp_src",
        "tp_dst",
    )

    def __init__(
        self,
        in_port: Optional[int] = None,
        dl_src: Optional[MacAddress] = None,
        dl_dst: Optional[MacAddress] = None,
        dl_vlan: Optional[int] = None,
        dl_vlan_pcp: Optional[int] = None,
        dl_type: Optional[int] = None,
        nw_tos: Optional[int] = None,
        nw_proto: Optional[int] = None,
        nw_src: Optional[IpAddress] = None,
        nw_dst: Optional[IpAddress] = None,
        tp_src: Optional[int] = None,
        tp_dst: Optional[int] = None,
    ) -> None:
        # Addresses are immutable: one handed in already typed is kept,
        # anything else (str, int, bytes) is parsed.
        self.in_port = in_port
        self.dl_src = (
            dl_src if dl_src is None or type(dl_src) is MacAddress else MacAddress(dl_src)
        )
        self.dl_dst = (
            dl_dst if dl_dst is None or type(dl_dst) is MacAddress else MacAddress(dl_dst)
        )
        self.dl_vlan = dl_vlan
        self.dl_vlan_pcp = dl_vlan_pcp
        self.dl_type = dl_type
        self.nw_tos = nw_tos
        self.nw_proto = nw_proto
        self.nw_src = (
            nw_src if nw_src is None or type(nw_src) is IpAddress else IpAddress(nw_src)
        )
        self.nw_dst = (
            nw_dst if nw_dst is None or type(nw_dst) is IpAddress else IpAddress(nw_dst)
        )
        self.tp_src = tp_src
        self.tp_dst = tp_dst

    @classmethod
    def wildcard(cls) -> "Match":
        """Match everything (a table-miss style entry)."""
        return cls()

    def copy(self) -> "Match":
        """An equal match that shares no mutable state with this one."""
        return Match(*self._key())

    @classmethod
    def from_packet(cls, packet: Packet, in_port: Optional[int] = None) -> "Match":
        """Exact match extracted from a packet (OF 1.0 reactive style)."""
        eth, vlan, ip, l4 = packet.fields()
        match = cls(
            in_port=in_port,
            dl_src=eth.src,
            dl_dst=eth.dst,
            dl_type=eth.ethertype,
        )
        if vlan is not None:
            match.dl_vlan = vlan.vid
            match.dl_vlan_pcp = vlan.pcp
        if ip is not None:
            match.nw_src = ip.src
            match.nw_dst = ip.dst
            match.nw_proto = ip.proto
            match.nw_tos = ip.tos
            if isinstance(l4, (Udp, Tcp)):
                match.tp_src = l4.sport
                match.tp_dst = l4.dport
            elif isinstance(l4, Icmp):
                match.tp_src = l4.icmp_type
                match.tp_dst = l4.code
        return match

    # ------------------------------------------------------------------
    def matches(self, packet: Packet, in_port: int) -> bool:
        """Does ``packet`` arriving on ``in_port`` satisfy this match?"""
        eth, vlan, ip, l4 = packet.fields()
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.dl_src is not None and eth.src != self.dl_src:
            return False
        if self.dl_dst is not None and eth.dst != self.dl_dst:
            return False
        if self.dl_type is not None and eth.ethertype != self.dl_type:
            return False
        if self.dl_vlan is not None:
            if vlan is None or vlan.vid != self.dl_vlan:
                return False
        if self.dl_vlan_pcp is not None:
            if vlan is None or vlan.pcp != self.dl_vlan_pcp:
                return False
        ip_fields_used = (
            self.nw_src is not None
            or self.nw_dst is not None
            or self.nw_proto is not None
            or self.nw_tos is not None
        )
        if ip_fields_used and ip is None:
            return False
        if ip is not None:
            if self.nw_src is not None and ip.src != self.nw_src:
                return False
            if self.nw_dst is not None and ip.dst != self.nw_dst:
                return False
            if self.nw_proto is not None and ip.proto != self.nw_proto:
                return False
            if self.nw_tos is not None and ip.tos != self.nw_tos:
                return False
        if self.tp_src is not None or self.tp_dst is not None:
            if isinstance(l4, (Udp, Tcp)):
                if self.tp_src is not None and l4.sport != self.tp_src:
                    return False
                if self.tp_dst is not None and l4.dport != self.tp_dst:
                    return False
            elif isinstance(l4, Icmp):
                if self.tp_src is not None and l4.icmp_type != self.tp_src:
                    return False
                if self.tp_dst is not None and l4.code != self.tp_dst:
                    return False
            else:
                return False
        return True

    # ------------------------------------------------------------------
    def is_exact(self) -> bool:
        """Is this the fully-specified shape :meth:`from_packet` produces?

        Exact matches can be served from a hash index: their 12-tuple key
        equals one of the (at most two) probe keys
        :func:`packet_probe_keys` derives from a packet.  Anything else —
        stray wildcards, half-specified VLAN/transport fields, IP fields
        under a non-IPv4 ethertype — takes the ordered linear scan.
        """
        if (
            self.in_port is None
            or self.dl_src is None
            or self.dl_dst is None
            or self.dl_type is None
        ):
            return False
        if (self.dl_vlan is None) != (self.dl_vlan_pcp is None):
            return False
        nw = (self.nw_tos, self.nw_proto, self.nw_src, self.nw_dst)
        tp_set = self.tp_src is not None and self.tp_dst is not None
        tp_none = self.tp_src is None and self.tp_dst is None
        if self.dl_type == ETH_TYPE_IPV4:
            if any(f is None for f in nw):
                return False
            return tp_set if self.nw_proto in _TP_PROTOS else tp_none
        return all(f is None for f in nw) and tp_none

    def _key(self) -> tuple:
        return (
            self.in_port,
            self.dl_src,
            self.dl_dst,
            self.dl_vlan,
            self.dl_vlan_pcp,
            self.dl_type,
            self.nw_tos,
            self.nw_proto,
            self.nw_src,
            self.nw_dst,
            self.tp_src,
            self.tp_dst,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = []
        for name in self.__slots__:
            value = getattr(self, name)
            if value is not None:
                fields.append(f"{name}={value}")
        return f"Match({', '.join(fields) or '*'})"


def packet_probe_keys(packet: Packet, in_port: int) -> List[Tuple]:
    """The 12-tuple keys of every *exact* match this packet can satisfy.

    An exact entry (see :meth:`Match.is_exact`) matches the packet iff its
    ``_key()`` equals one of the returned tuples, so a flow-table hash
    index probed with these keys returns exactly the entries the linear
    scan would.  Two subtleties keep that equivalence honest:

    * an untagged-shape entry (``dl_vlan``/``dl_vlan_pcp`` both None)
      legally matches a *tagged* packet, so tagged packets get a second,
      VLAN-stripped probe;
    * ``tp_src/tp_dst`` only appear in exact entries when the IP protocol
      is ICMP/TCP/UDP, so for other protocols the probe strips the
      transport fields a crafted packet may still carry.  Likewise a
      packet carrying IP headers under a non-IPv4 ethertype probes with
      the network fields stripped, matching the all-None shape exactness
      forces on such entries.
    """
    eth, vlan, ip, l4 = packet.fields()
    if isinstance(l4, (Udp, Tcp)):
        tp_src: Optional[int] = l4.sport
        tp_dst: Optional[int] = l4.dport
    elif isinstance(l4, Icmp):
        tp_src, tp_dst = l4.icmp_type, l4.code
    else:
        tp_src = tp_dst = None

    ethertype = eth.ethertype
    if ip is not None and ethertype == ETH_TYPE_IPV4:
        if l4 is not None and ip.proto not in _TP_PROTOS:
            tp_src = tp_dst = None
        nw = (ip.tos, ip.proto, ip.src, ip.dst, tp_src, tp_dst)
    else:
        nw = (None, None, None, None, None, None)

    keys = [(in_port, eth.src, eth.dst,
             None if vlan is None else vlan.vid,
             None if vlan is None else vlan.pcp,
             ethertype) + nw]
    if vlan is not None:
        keys.append((in_port, eth.src, eth.dst, None, None, ethertype) + nw)
    return keys
