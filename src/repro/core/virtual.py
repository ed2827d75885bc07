"""The virtualized NetCo (Section VII, Figure 9).

Instead of physical redundancy, the combiner is *emulated*: a protected
flow is split at its ingress edge into ``k`` copies, each tunnelled over
a node-disjoint path through heterogeneous (differently-vendored)
devices, and recombined by an **in-band** compare at the egress edge.
SDN traffic-engineering supplies the tunnels: each copy carries a VLAN
tag that routes it, and the transit switches forward on ``dl_vlan``.  The
tag does not name the copy's branch: the egress port it arrives on does.

Two copies suffice for detection, three for prevention — same quorum
arithmetic as the physical combiner, same :class:`CompareCore`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.alarms import ALARM_SPOOFED_BRANCH, AlarmSink
from repro.core.combiner import CombinerChain
from repro.core.compare import CompareConfig, CompareContext, CompareCore
from repro.core.endpoint import BranchPorts
from repro.net.addresses import MacAddress
from repro.net.node import NetworkError
from repro.net.packet import Packet, Vlan
from repro.net.topology import Network
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch


#: tunnel i's VLAN id is VID_BASE + i
VID_BASE = 100


class VirtualIngress(OpenFlowSwitch):
    """Edge switch that splits protected flows over tagged tunnels.

    Unprotected traffic takes the normal match-action pipeline.
    """

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
            super()._process(packet, in_port_no)
            return
        self.split_packets += 1
        for vid, out_port in tunnels:
            copy = packet.copy()
            copy.vlan = Vlan(vid)
            port = self.ports.get(out_port)
            if port is not None and port.is_wired:
                port.send(copy)


class VirtualEgress(BranchPorts, OpenFlowSwitch):
    """Edge switch hosting the in-band compare for tunnelled flows.

    A copy's branch is the port it arrived on (each node-disjoint tunnel
    ends on a port of its own); its VLAN tag only routed it here.  A
    protected tag on another tunnel's port is a spoofed branch and never
    reaches the vote, and so is a frame for the protected destination on
    a tunnel port without that tunnel's tag: a transit that strips or
    swaps the label is refused, not routed.  Copies that pass are
    stripped and voted on; the released packet continues through the
    normal pipeline (so the egress needs an ordinary route to the
    destination).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._core: Optional[CompareCore] = None
        self._branch_by_vid: Dict[int, int] = {}
        self._protected_dst: Optional[MacAddress] = None
        self._context: Optional[CompareContext] = None
        self.recombined = 0
        self.spoof_drops = 0

    def attach_compare(
        self, core: CompareCore, vids: List[int], dst_mac: MacAddress
    ) -> None:
        """Use ``core`` to vote on copies for ``dst_mac`` tagged with
        ``vids`` (in branch order); each tunnel's port is recorded with
        :meth:`assign_branch`."""
        if self._core is not None and self._core is not core:
            raise NetworkError(f"{self.name}: a compare is already attached")
        self._core = core
        self._branch_by_vid = {vid: branch for branch, vid in enumerate(vids)}
        self._protected_dst = MacAddress(dst_mac)

        def release(packet: Packet) -> None:
            self.recombined += 1
            # Continue through the normal pipeline as fresh ingress.
            entry = self.table.lookup(packet, 0, self.sim.now)
            if entry is not None and entry.actions:
                self.apply_actions(packet, entry.actions, 0)
            else:
                self.stats.dropped_no_match += 1
                if self.tracing("virtual_egress.no_route"):
                    self.trace("virtual_egress.no_route", packet=packet)

        self._context = CompareContext(
            scope=self.name, release=release, block_branch=self.block_branch_ingress
        )

    def _process(self, packet: Packet, in_port_no: int) -> None:
        vlan = packet.vlan
        vid = None if vlan is None else vlan.vid
        branch = self._branch_by_port.get(in_port_no)
        if vid not in self._branch_by_vid and (
            branch is None or packet.eth.dst != self._protected_dst
        ):
            super()._process(packet, in_port_no)
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


def provision_virtual_combiner(
    network: Network,
    ingress: VirtualIngress,
    egress: VirtualEgress,
    dst_mac: MacAddress,
    k: int = 3,
    compare: Optional[CompareConfig] = None,
) -> CombinerChain:
    """Split traffic for ``dst_mac`` from ``ingress`` to ``egress`` over
    ``k`` node-disjoint tunnels and recombine in-band at the egress.

    Installs ``dl_vlan`` forwarding rules on every transit switch; the
    caller is responsible for the egress' normal route to the final
    destination (e.g. via :class:`~repro.apps.static_routing.
    StaticMacRouter`).  The handle's trusted elements are the two edges,
    branch i is tunnel i's transit switches, and it has no compare host.
    """
    paths = network.disjoint_paths(ingress.name, egress.name, k)
    if len(paths) < k:
        raise NetworkError(
            f"only {len(paths)} disjoint paths between {ingress.name} and "
            f"{egress.name}; need {k}"
        )
    paths = paths[:k]
    alarms = AlarmSink(network.trace)
    core = CompareCore(
        network.sim,
        replace(compare or CompareConfig(), k=k),
        name=f"{egress.name}_inband_compare",
        alarm_sink=alarms,
        trace_bus=network.trace,
    )

    vids = [VID_BASE + i for i in range(k)]
    tunnels: List[Tuple[int, int]] = []
    for branch, (vid, path) in enumerate(zip(vids, paths)):
        tunnels.append((vid, network.port_no_between(ingress.name, path[1])))
        egress.assign_branch(network.port_no_between(egress.name, path[-2]), branch)
        # Program the transit switches (everything strictly between the
        # two edges) to forward this tag along the path.
        for here, nxt in zip(path[1:-1], path[2:]):
            node = network.node(here)
            if not isinstance(node, OpenFlowSwitch):
                raise NetworkError(f"transit node {here!r} is not a switch")
            node.install(
                Match(dl_vlan=vid),
                [Output(network.port_no_between(here, nxt))],
                priority=20,
            )
    ingress.protect_flow(dst_mac, tunnels)
    egress.attach_compare(core, vids, dst_mac)

    return CombinerChain(
        network,
        f"{egress.name}_inband",
        ingress,
        egress,
        [[network.node(n) for n in path[1:-1]] for path in paths],
        compare_host=None,
        compare_core=core,
        alarms=alarms,
    )
