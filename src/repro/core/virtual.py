"""The virtualized NetCo (Section VII, Figure 9).

Instead of physical redundancy, the combiner is *emulated*: a protected
flow is split at its ingress edge into ``k`` copies, each tunnelled over
a node-disjoint path through heterogeneous (differently-vendored)
devices, and recombined by an **in-band** compare at the egress edge.
SDN traffic-engineering supplies the tunnels: each copy carries a VLAN
tag naming its path, and the transit switches forward on ``dl_vlan``.

Two copies suffice for detection, three for prevention — same quorum
arithmetic as the physical combiner, same :class:`CompareCore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.alarms import AlarmSink
from repro.core.compare import CompareConfig, CompareContext, CompareCore
from repro.net.addresses import MacAddress
from repro.net.node import NetworkError
from repro.net.packet import Packet, Vlan
from repro.net.topology import Network
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch


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


class VirtualEgress(OpenFlowSwitch):
    """Edge switch hosting the in-band compare for tunnelled flows.

    Copies arriving with a protected VLAN tag are stripped and voted on;
    the released packet continues through the normal pipeline (so the
    egress needs an ordinary route to the destination).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._core: Optional[CompareCore] = None
        self._vid_to_branch: Dict[int, int] = {}
        self._context: Optional[CompareContext] = None
        self.recombined = 0

    def attach_compare(self, core: CompareCore, vids: List[int]) -> None:
        """Use ``core`` to vote on copies tagged with ``vids`` (in branch
        order)."""
        if self._core is not None and self._core is not core:
            raise NetworkError(f"{self.name}: a compare is already attached")
        self._core = core
        self._vid_to_branch = {vid: branch for branch, vid in enumerate(vids)}

        def release(packet: Packet) -> None:
            self.recombined += 1
            # Continue through the normal pipeline as fresh ingress.
            entry = self.table.lookup(packet, 0, self.sim.now)
            if entry is not None and entry.actions:
                self.apply_actions(packet, entry.actions, 0)
            else:
                self.stats.dropped_no_match += 1
                self.trace("virtual_egress.no_route", packet=packet)

        self._context = CompareContext(
            scope=self.name, release=release, block_branch=self._block_tunnel
        )

    def _block_tunnel(self, branch: int, duration: float) -> None:
        # In-band: we cannot block a whole path, but we can ignore its
        # tag for a while by blocking the port it arrives on — left as a
        # trace-visible decision.
        self.trace("virtual_egress.block_tunnel", branch=branch, duration=duration)

    def _process(self, packet: Packet, in_port_no: int) -> None:
        vlan = packet.vlan
        if (
            self._core is not None
            and vlan is not None
            and vlan.vid in self._vid_to_branch
        ):
            branch = self._vid_to_branch[vlan.vid]
            stripped = packet.copy()
            stripped.vlan = None
            assert self._context is not None
            self._core.submit(stripped, branch, self._context)
            return
        super()._process(packet, in_port_no)


@dataclass
class VirtualCombiner:
    """Handles for one provisioned virtualized combiner.

    Reads like a :class:`~repro.core.combiner.CombinerChain` where a
    scenario handle needs it to: the edges are the two trusted elements
    and the transit switches of tunnel i are branch i.
    """

    network: Network
    ingress: VirtualIngress
    egress: VirtualEgress
    core: CompareCore
    paths: List[List[str]] = field(default_factory=list)
    vids: List[int] = field(default_factory=list)
    alarms: Optional[AlarmSink] = None

    @property
    def k(self) -> int:
        return len(self.paths)

    endpoint_a = property(lambda self: self.ingress)
    endpoint_b = property(lambda self: self.egress)
    compare_core = property(lambda self: self.core)

    @property
    def branches(self) -> List[List[OpenFlowSwitch]]:
        return [[self.network.node(n) for n in path[1:-1]] for path in self.paths]


def provision_virtual_combiner(
    network: Network,
    ingress: VirtualIngress,
    egress: VirtualEgress,
    dst_mac: MacAddress,
    k: int = 3,
    vid_base: int = 100,
    compare: Optional[CompareConfig] = None,
    alarm_sink: Optional[AlarmSink] = None,
    paths: Optional[List[List[str]]] = None,
) -> VirtualCombiner:
    """Split traffic for ``dst_mac`` from ``ingress`` to ``egress`` over
    ``k`` node-disjoint tunnels and recombine in-band at the egress.

    Installs ``dl_vlan`` forwarding rules on every transit switch; the
    caller is responsible for the egress' normal route to the final
    destination (e.g. via :class:`~repro.apps.static_routing.
    StaticMacRouter`).
    """
    if paths is None:
        paths = network.disjoint_paths(ingress.name, egress.name, k)
    if len(paths) < k:
        raise NetworkError(
            f"only {len(paths)} disjoint paths between {ingress.name} and "
            f"{egress.name}; need {k}"
        )
    paths = paths[:k]
    alarms = alarm_sink or AlarmSink(network.trace)
    config = compare or CompareConfig(k=k)
    if config.k != k:
        from dataclasses import replace as dc_replace

        config = dc_replace(config, k=k)
    core = CompareCore(
        network.sim,
        config,
        name=f"{egress.name}_inband_compare",
        alarm_sink=alarms,
        trace_bus=network.trace,
    )

    vids = [vid_base + i for i in range(k)]
    tunnels: List[Tuple[int, int]] = []
    for i, path in enumerate(paths):
        vid = vids[i]
        first_hop_port = network.port_no_between(ingress.name, path[1])
        tunnels.append((vid, first_hop_port))
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
    egress.attach_compare(core, vids)

    return VirtualCombiner(
        network=network,
        ingress=ingress,
        egress=egress,
        core=core,
        paths=paths,
        vids=vids,
        alarms=alarms,
    )
