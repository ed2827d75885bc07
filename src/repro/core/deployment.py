"""Deploying NetCo inside an existing topology: the *shielded router*.

Figure 2 of the paper replaces one router ``r`` in a network by a hub,
``k`` redundant routers and a compare.  :class:`ShieldedRouter` is that
replacement as a drop-in unit for an n-port router:

* a single trusted endpoint carries all of ``r``'s original external
  links (it plays hub on ingress and egress-forwarder on release);
* each replica ``r_i`` is a full OpenFlow switch wired to the endpoint
  with **one link per original port**, so the port a copy comes back on
  encodes the replica's *claimed egress* — the majority vote is over
  ``(packet bytes, claimed egress port)``, i.e. the routing decision is
  voted on, not just the payload;
* the compare runs on a dedicated host attached in-band, exactly like
  ``h3`` in the prototype.

The Section VI datacenter case study shields the malicious aggregation
switch with this unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.alarms import AlarmSink
from repro.core.combiner import CompareHost, attach_inline_compare
from repro.core.compare import CompareConfig, CompareCore
from repro.core.endpoint import MODE_COMBINE, CombinerEndpoint
from repro.net.addresses import MacAddress
from repro.net.node import NetworkError, Node
from repro.net.topology import Network
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch
from repro.sim import CpuResource


@dataclass
class ShieldedRouterParams:
    """Tunables for a shielded router deployment."""

    k: int = 3
    link_rate_bps: float = 1e9
    link_delay: float = 2e-6
    queue_capacity: int = 100
    router_proc_time: float = 5e-6
    router_proc_per_byte: float = 2.5e-9
    endpoint_proc_time: float = 1e-6
    endpoint_proc_per_byte: float = 2e-9
    compare_link_rate_bps: float = 1e9
    compare_link_delay: float = 5e-6
    compare: CompareConfig = field(default_factory=CompareConfig)
    shared_cpu: Optional[CpuResource] = None


class ShieldedRouter:
    """A NetCo replacement for one n-port router.

    Build with :func:`build_shielded_router`, then wire each neighbour of
    the original router to an external port via :meth:`attach_neighbor`,
    and program routes with :meth:`install_mac_route`.
    """

    def __init__(
        self,
        network: Network,
        name: str,
        endpoint: CombinerEndpoint,
        replicas: List[OpenFlowSwitch],
        compare_host: CompareHost,
        compare_core: CompareCore,
        alarms: AlarmSink,
        params: ShieldedRouterParams,
    ) -> None:
        self.network = network
        self.name = name
        self.endpoint = endpoint
        self.replicas = replicas
        self.compare_host = compare_host
        self.compare_core = compare_core
        self.alarms = alarms
        self.params = params
        # external port number -> (replica index -> replica-side port no)
        self._replica_port_for_claim: Dict[int, Dict[int, int]] = {}
        self._next_external = 0

    @property
    def k(self) -> int:
        return len(self.replicas)

    # ------------------------------------------------------------------
    def attach_neighbor(
        self,
        neighbor: Node,
        rate_bps: Optional[float] = None,
        delay: Optional[float] = None,
    ) -> int:
        """Wire ``neighbor`` to a fresh external port (as it was wired to
        the original router).  Returns the external port number.

        For each replica, a parallel branch link is created so the
        replica can claim this egress.
        """
        params = self.params
        link = self.network.connect(
            self.endpoint,
            neighbor,
            rate_bps=rate_bps if rate_bps is not None else params.link_rate_bps,
            delay=delay if delay is not None else params.link_delay,
            queue_capacity=params.queue_capacity,
        )
        external_port = link.a.port_no
        self._next_external += 1
        claim_map: Dict[int, int] = {}
        for i, replica in enumerate(self.replicas):
            branch_link = self.network.connect(
                self.endpoint,
                replica,
                rate_bps=params.link_rate_bps,
                delay=params.link_delay,
                queue_capacity=params.queue_capacity,
            )
            self.endpoint.assign_branch(
                branch_link.a.port_no, branch=i, claim=external_port
            )
            claim_map[i] = branch_link.b.port_no
        self._replica_port_for_claim[external_port] = claim_map
        return external_port

    def external_port_of(self, neighbor_name: str) -> int:
        return self.network.port_no_between(self.endpoint.name, neighbor_name)

    # ------------------------------------------------------------------
    def install_mac_route(self, mac: MacAddress, egress_external_port: int) -> None:
        """Program every replica to route ``mac`` toward the given
        original egress port (each replica outputs on its own link that
        claims that egress)."""
        claim_map = self._replica_port_for_claim.get(egress_external_port)
        if claim_map is None:
            raise NetworkError(
                f"{self.name}: external port {egress_external_port} not attached"
            )
        for i, replica in enumerate(self.replicas):
            replica.install(
                Match(dl_dst=MacAddress(mac)),
                [Output(claim_map[i])],
                priority=10,
            )

    def replica(self, index: int) -> OpenFlowSwitch:
        return self.replicas[index]


def build_shielded_router(
    network: Network,
    name: str,
    params: Optional[ShieldedRouterParams] = None,
    alarm_sink: Optional[AlarmSink] = None,
) -> ShieldedRouter:
    """Create the endpoint, replicas and compare of a shielded router.

    Neighbours are attached afterwards with :meth:`ShieldedRouter.
    attach_neighbor`.
    """
    params = params or ShieldedRouterParams()
    if params.k < 1:
        raise NetworkError(f"shielded router needs k >= 1, got {params.k}")
    sim, trace = network.sim, network.trace
    alarms = alarm_sink or AlarmSink(trace)

    endpoint = CombinerEndpoint(
        sim,
        f"{name}_e",
        trace_bus=trace,
        proc_time=params.endpoint_proc_time,
        proc_per_byte=params.endpoint_proc_per_byte,
        cpu=params.shared_cpu,
        mode=MODE_COMBINE,
        alarm_sink=alarms,
    )
    network.add_node(endpoint)

    replicas: List[OpenFlowSwitch] = []
    for i in range(params.k):
        replica = OpenFlowSwitch(
            sim,
            f"{name}_r{i}",
            trace_bus=trace,
            proc_time=params.router_proc_time,
            proc_per_byte=params.router_proc_per_byte,
            cpu=params.shared_cpu,
        )
        network.add_node(replica)
        replicas.append(replica)

    config = replace(params.compare, k=params.k)
    core, compare_host = attach_inline_compare(
        network,
        name,
        config,
        (endpoint,),
        alarms,
        rate_bps=params.compare_link_rate_bps,
        delay=params.compare_link_delay,
        queue_capacity=params.queue_capacity,
    )

    return ShieldedRouter(
        network=network,
        name=name,
        endpoint=endpoint,
        replicas=replicas,
        compare_host=compare_host,
        compare_core=core,
        alarms=alarms,
        params=params,
    )
