"""The virtualized NetCo's trusted edges (Section VII, Figure 9).

Instead of physical redundancy, the combiner is *emulated*: a protected
flow is split at its ingress edge into ``k`` copies, each tunnelled over
a node-disjoint path through heterogeneous (differently-vendored)
devices, and recombined by an **in-band** compare at the egress edge.
SDN traffic-engineering supplies the tunnels: each copy carries a VLAN
tag that routes it, and the transit switches forward on ``dl_vlan``.  The
tag does not name the copy's branch: the egress port it arrives on does.

Two copies suffice for detection, three for prevention — same quorum
arithmetic as the physical combiner, same :class:`CompareCore`.

Both edges are trusted datapaths with no OpenFlow pipeline: what an
edge does not split or vote on, and every release, leaves through one
static ``dst MAC -> port`` table, and a frame with no route is counted
and dropped, never flooded.  The edges take no packet trains;
:mod:`repro.scenarios.virtualized` provisions the untrusted transits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.alarms import ALARM_SPOOFED_BRANCH
from repro.core.compare import CompareContext
from repro.core.endpoint import BranchPorts
from repro.net.addresses import MacAddress
from repro.net.node import Datapath, NetworkError, Port
from repro.net.packet import Packet, Vlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compare import CompareCore


#: tunnel i's VLAN id is VID_BASE + i
VID_BASE = 100


class VirtualEdge(Datapath):
    """A trusted edge's static route table: ``dst MAC -> port``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # dst mac -> the port toward it
        self._routes: Dict[MacAddress, Port] = {}
        self.unrouted_drops = 0

    def route(self, dst_mac: MacAddress, port_no: int) -> None:
        """Forward frames for ``dst_mac`` out of wired port ``port_no``."""
        port = self.port(port_no)
        if not port.is_wired:
            raise NetworkError(f"{self.name}: port {port_no} is not wired")
        self._routes[MacAddress(dst_mac)] = port

    def _forward(self, packet: Packet) -> None:
        """Send ``packet`` (the caller's to give) toward its destination."""
        port = self._routes.get(packet.fields()[0].dst)
        if port is None:
            self.unrouted_drops += 1
            if self.tracing("virtual_edge.no_route"):
                self.trace("virtual_edge.no_route", packet=packet)
            return
        port.send(packet)
        self.stats.forwarded += 1


class VirtualIngress(VirtualEdge):
    """Edge that splits protected flows over tagged tunnels, routes the rest."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # dst mac -> list of (vlan id, out port)
        self._protected: Dict[MacAddress, List[Tuple[int, int]]] = {}
        self.split_packets = 0

    def protect_flow(self, dst_mac: MacAddress, tunnels: List[Tuple[int, int]]) -> None:
        """Split traffic to ``dst_mac`` over ``[(vid, out_port), ...]``."""
        if not tunnels:
            raise NetworkError(f"{self.name}: need at least one tunnel")
        self._protected[MacAddress(dst_mac)] = list(tunnels)

    def _process(self, packet: Packet, in_port_no: int) -> None:
        tunnels = self._protected.get(packet.eth.dst)
        if tunnels is None or packet.vlan is not None:
            self._forward(packet)
            return
        self.split_packets += 1
        for vid, out_port in tunnels:
            copy = packet.copy()
            copy.vlan = Vlan(vid)
            self.ports[out_port].send(copy)  # an unwired port sends nothing


class VirtualEgress(BranchPorts, VirtualEdge):
    """Edge hosting the in-band compare for tunnelled flows.

    A copy's branch is the port it arrived on (each node-disjoint tunnel
    ends on a port of its own); its VLAN tag only routed it here.  A
    protected tag on another tunnel's port is a spoofed branch and never
    reaches the vote, and so is a frame for the protected destination on
    a tunnel port without that tunnel's tag: a transit that strips or
    swaps the label is refused, not routed.  Copies that pass are
    stripped and voted on; a released copy, like unprotected traffic,
    leaves through the route table (so the egress needs a route to the
    destination).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._core: Optional["CompareCore"] = None
        self._branch_by_vid: Dict[int, int] = {}
        self._protected_dst: Optional[MacAddress] = None
        self._context: Optional[CompareContext] = None
        self.recombined = 0
        self.spoof_drops = 0

    def attach_compare(
        self, core: "CompareCore", vids: List[int], dst_mac: MacAddress
    ) -> None:
        """Use ``core`` to vote on copies for ``dst_mac`` tagged with
        ``vids`` (in branch order); each tunnel's port is recorded with
        :meth:`assign_branch`."""
        if self._core is not None and self._core is not core:
            raise NetworkError(f"{self.name}: a compare is already attached")
        self._core = core
        self._branch_by_vid = {vid: branch for branch, vid in enumerate(vids)}
        self._protected_dst = MacAddress(dst_mac)
        self._context = CompareContext(
            scope=self.name, release=self._release,
            block_branch=self.block_branch_ingress,
        )

    def _release(self, packet: Packet) -> None:
        """The compare released ``packet``: route a copy of it on."""
        self.recombined += 1
        self._forward(packet.copy())

    def _process(self, packet: Packet, in_port_no: int) -> None:
        vlan = packet.vlan
        vid = None if vlan is None else vlan.vid
        branch = self._branch_by_port.get(in_port_no)
        if vid not in self._branch_by_vid and (
            branch is None or packet.eth.dst != self._protected_dst
        ):
            self._forward(packet)
            return
        if branch != self._branch_by_vid.get(vid):
            self.spoof_drops += 1
            self._core.alarms.raise_alarm(
                self.sim.now, ALARM_SPOOFED_BRANCH, self.name,
                branch=branch, claimed=vid,
            )
            return
        stripped = packet.copy()
        stripped.vlan = None
        self._core.submit(stripped, branch, self._context)
