"""A legacy (non-OpenFlow) IPv4 router.

Section IX: "while we have so far focused on building a secure router
out of insecure OpenFlow switches, we believe that our approach can
easily be extended to legacy routers."  This module provides that other
kind of untrusted device: a classic longest-prefix-match IPv4 router
with static routes, neighbour (ARP-table) entries, TTL handling and
ICMP Time Exceeded generation.

Because a legacy router rewrites the Ethernet header on every hop (its
own MAC as source, the next hop's as destination), combiner deployments
over legacy routers vote with a source-masked policy — see
``tests/test_legacy.py`` for the end-to-end demonstration.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.net.addresses import IpAddress, MacAddress
from repro.net.node import Node, Port
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    Icmp,
    Ipv4,
    Packet,
)
from repro.sim.engine import CpuResource, Simulator
from repro.sim.trace import TraceBus

#: ICMP type 11 = Time Exceeded
ICMP_TIME_EXCEEDED = 11


class RouteEntry(NamedTuple):
    """One static route: destination prefix -> egress."""

    prefix: IpAddress
    prefix_len: int
    out_port: int
    next_hop_mac: MacAddress

    def matches(self, ip: IpAddress) -> bool:
        if self.prefix_len == 0:
            return True
        shift = 32 - self.prefix_len
        return (int(ip) >> shift) == (int(self.prefix) >> shift)


class LegacyRouter(Node):
    """Static LPM IPv4 router (an untrusted black box to the combiner)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        ip: Optional[IpAddress] = None,
        trace_bus: Optional[TraceBus] = None,
        proc_time: float = 0.0,
        cpu: Optional[CpuResource] = None,
        accept_any_dst_mac: bool = False,
    ) -> None:
        super().__init__(sim, name, trace_bus)
        self.mac = MacAddress(mac)
        self.ip = IpAddress(ip) if ip is not None else None
        self.proc_time = proc_time
        self.cpu = cpu if cpu is not None else CpuResource(f"{name}.cpu")
        # accept frames not addressed to us (promiscuous L3 hop) — useful
        # when a hub feeds copies without rewriting the destination MAC
        self.accept_any_dst_mac = accept_any_dst_mac
        self._routes: List[RouteEntry] = []
        self.forwarded = 0
        self.dropped_no_route = 0
        self.dropped_ttl = 0
        self.dropped_not_for_us = 0

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_route(
        self,
        prefix: IpAddress,
        prefix_len: int,
        out_port: int,
        next_hop_mac: MacAddress,
    ) -> None:
        """Install a static route; kept sorted longest-prefix-first."""
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        self._routes.append(
            RouteEntry(IpAddress(prefix), prefix_len, out_port, MacAddress(next_hop_mac))
        )
        self._routes.sort(key=lambda r: -r.prefix_len)

    def add_default_route(self, out_port: int, next_hop_mac: MacAddress) -> None:
        self.add_route(IpAddress(0), 0, out_port, next_hop_mac)

    def lookup(self, ip: IpAddress) -> Optional[RouteEntry]:
        """Longest-prefix-match lookup."""
        for route in self._routes:
            if route.matches(ip):
                return route
        return None

    @property
    def route_count(self) -> int:
        return len(self._routes)

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_port: Port) -> None:
        if self.proc_time <= 0.0:
            self._forward(packet, in_port.port_no)
            return
        finish = self.cpu.acquire(self.sim.now, self.proc_time)
        self.sim.schedule_at(finish, lambda: self._forward(packet, in_port.port_no))

    def _forward(self, packet: Packet, in_port_no: int) -> None:
        eth, _vlan, ip, _l4, _payload = packet.fields()  # read-only access
        if (
            not self.accept_any_dst_mac
            and eth.dst != self.mac
            and not eth.dst.is_broadcast
        ):
            self.dropped_not_for_us += 1
            if self.tracing("legacy.not_for_us"):
                self.trace("legacy.not_for_us", packet=packet)
            return
        if ip is None:
            self.dropped_no_route += 1
            if self.tracing("legacy.non_ip"):
                self.trace("legacy.non_ip", packet=packet)
            return
        if ip.ttl <= 1:
            self.dropped_ttl += 1
            if self.tracing("legacy.ttl_exceeded"):
                self.trace("legacy.ttl_exceeded", packet=packet)
            self._send_time_exceeded(packet, in_port_no)
            return
        route = self.lookup(ip.dst)
        if route is None:
            self.dropped_no_route += 1
            if self.tracing("legacy.no_route"):
                self.trace("legacy.no_route", dst=str(ip.dst))
            return
        out = self.ports.get(route.out_port)
        if out is None or not out.is_wired:
            self.dropped_no_route += 1
            return
        hop = packet.copy()
        # Both rewrites patch a valid cached wire image in place (RFC 1624
        # incremental checksum for the TTL) instead of re-serialising.
        hop.decrement_ttl()
        hop.rewrite_eth(src=self.mac, dst=route.next_hop_mac)
        out.send(hop)
        self.forwarded += 1

    def _send_time_exceeded(self, packet: Packet, in_port_no: int) -> None:
        """ICMP Time Exceeded back toward the source (traceroute food)."""
        if self.ip is None or packet.ip is None:
            return
        if isinstance(packet.l4, Icmp) and packet.l4.icmp_type in (
            ICMP_TIME_EXCEEDED,
            ICMP_ECHO_REPLY,
        ):
            return  # never ICMP-error an ICMP error
        route = self.lookup(packet.ip.src)
        if route is None:
            return
        out = self.ports.get(route.out_port)
        if out is None or not out.is_wired:
            return
        # RFC 792: the error quotes the offending IP header + 8 bytes
        quoted = packet.to_bytes()
        offset = 14 + (4 if packet.vlan is not None else 0)
        payload = quoted[offset : offset + 28]
        error = Packet(
            eth=packet.eth.copy(),
            ip=Ipv4(self.ip, packet.ip.src, 1, ttl=64),
            l4=Icmp(ICMP_TIME_EXCEEDED, code=0),
            payload=payload,
        )
        error.eth.src = self.mac
        error.eth.dst = route.next_hop_mac
        out.send(error)
