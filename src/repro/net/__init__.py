"""Network substrate: packets, links, nodes, hosts, topologies."""

from repro.net.addresses import IpAddress, MacAddress
from repro.net.fattree import FatTree, build_fat_tree
from repro.net.host import Host
from repro.net.legacy import ICMP_TIME_EXCEEDED, LegacyRouter, RouteEntry
from repro.net.link import Link, LinkStats
from repro.net.node import NetworkError, Node, Port
from repro.net.packet import (
    ETH_TYPE_IPV4,
    ETH_TYPE_VLAN,
    Ethernet,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Icmp,
    Ipv4,
    Packet,
    PacketError,
    TCP_ACK,
    TCP_DSACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    Tcp,
    Udp,
    Vlan,
    internet_checksum,
)
from repro.net.topology import Network

__all__ = [
    "IpAddress",
    "MacAddress",
    "FatTree",
    "build_fat_tree",
    "Host",
    "ICMP_TIME_EXCEEDED",
    "LegacyRouter",
    "RouteEntry",
    "Link",
    "LinkStats",
    "NetworkError",
    "Node",
    "Port",
    "ETH_TYPE_IPV4",
    "ETH_TYPE_VLAN",
    "Ethernet",
    "ICMP_ECHO_REPLY",
    "ICMP_ECHO_REQUEST",
    "IP_PROTO_ICMP",
    "IP_PROTO_TCP",
    "IP_PROTO_UDP",
    "Icmp",
    "Ipv4",
    "Packet",
    "PacketError",
    "TCP_ACK",
    "TCP_DSACK",
    "TCP_FIN",
    "TCP_PSH",
    "TCP_RST",
    "TCP_SYN",
    "Tcp",
    "Udp",
    "Vlan",
    "internet_checksum",
    "Network",
]
