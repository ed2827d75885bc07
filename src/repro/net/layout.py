"""Frame layout: header sizes, type codes and the error a malformed
frame raises.

What reading a frame needs before there is any packet model: the
:class:`~repro.net.packet.Packet` parser and serialiser build on it, and
so does the live transport's read-only
:class:`~repro.transport.wire.WireFrame`, which validates a received
frame without loading the model.
"""

from __future__ import annotations

# EtherTypes
ETH_TYPE_IPV4 = 0x0800
ETH_TYPE_VLAN = 0x8100

# IP protocol numbers
IP_PROTO_ICMP = 1
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17

ETHERNET_HEADER_LEN = 14
VLAN_TAG_LEN = 4
IPV4_HEADER_LEN = 20
UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20
ICMP_HEADER_LEN = 8


class PacketError(Exception):
    """Raised on malformed packet construction or parsing."""
