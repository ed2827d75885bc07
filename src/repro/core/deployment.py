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

The unit keeps its own link and datapath constants; only the compare
configuration (and with it ``k``) is the caller's.  The Section VI pod
slice (:mod:`repro.scenarios.datacenter`, registered as
``fattree_shielded3``) shields its aggregation switch with this unit.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.core.alarms import AlarmSink
from repro.core.combiner import CompareHost, attach_inline_compare
from repro.core.compare import CompareConfig, CompareCore
from repro.core.endpoint import MODE_COMBINE, CombinerEndpoint
from repro.net.addresses import MacAddress
from repro.net.link import Link
from repro.net.node import NetworkError, Node
from repro.net.topology import Network
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch

#: every external and claim-link: 1 Gbit/s, 2 µs
_LINK = dict(rate_bps=1e9, delay=2e-6, queue_capacity=100)
#: the in-band link to the compare host
_COMPARE_LINK = dict(rate_bps=1e9, delay=5e-6, queue_capacity=100)


class ShieldedRouter:
    """A NetCo replacement for one n-port router.

    Build with :func:`build_shielded_router`, then wire each neighbour of
    the original router to an external port via :meth:`attach_neighbor`,
    and program routes with :meth:`install_mac_route`.  Reads like a
    :class:`~repro.core.combiner.CombinerChain` wherever a scenario
    handle needs it to: the one endpoint is both trusted elements and
    replica i is branch i.
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
    ) -> None:
        self.network = network
        self.name = name
        self.endpoint = endpoint
        self.replicas = replicas
        self.compare_host = compare_host
        self.compare_core = compare_core
        self.alarms = alarms
        # external port number -> each replica's port on its claim-link
        self._replica_port_for_claim: Dict[int, List[int]] = {}

    @property
    def k(self) -> int:
        return len(self.replicas)

    endpoint_a = property(lambda self: self.endpoint)
    endpoint_b = property(lambda self: self.endpoint)

    @property
    def branches(self) -> List[List[OpenFlowSwitch]]:
        return [[replica] for replica in self.replicas]

    # ------------------------------------------------------------------
    def attach_neighbor(self, neighbor: Node) -> int:
        """Wire ``neighbor`` to a fresh external port (as it was wired to
        the original router).  Returns the external port number.

        For each replica, a parallel branch link is created so the
        replica can claim this egress.
        """
        link = self.network.connect(self.endpoint, neighbor, **_LINK)
        external_port = link.a.port_no
        claim_ports: List[int] = []
        for i, replica in enumerate(self.replicas):
            branch_link = self.network.connect(self.endpoint, replica, **_LINK)
            self.endpoint.assign_branch(
                branch_link.a.port_no, branch=i, claim=external_port
            )
            claim_ports.append(branch_link.b.port_no)
        self._replica_port_for_claim[external_port] = claim_ports
        return external_port

    def external_port_of(self, neighbor_name: str) -> int:
        return self.network.port_no_between(self.endpoint.name, neighbor_name)

    def claim_port(self, replica: int, external_port: int) -> int:
        """Replica ``replica``'s port on the claim-link that stands for
        ``external_port``: sending there claims that egress."""
        ports = self._replica_port_for_claim.get(external_port)
        if ports is None:
            raise NetworkError(
                f"{self.name}: external port {external_port} not attached"
            )
        return ports[replica]

    def claim_links(self) -> Iterator[Tuple[int, str, Link]]:
        """``(replica, neighbour name, claim-link)`` for every claim-link,
        in external-port order."""
        for external_port, ports in self._replica_port_for_claim.items():
            neighbour = self.endpoint.port(external_port).peer.node.name
            for i, port_no in enumerate(ports):
                yield i, neighbour, self.replicas[i].port(port_no).link

    # ------------------------------------------------------------------
    def install_mac_route(self, mac: MacAddress, egress_external_port: int) -> None:
        """Program every replica to route ``mac`` toward the given
        original egress port (each replica outputs on its own link that
        claims that egress)."""
        for i, replica in enumerate(self.replicas):
            replica.install(
                Match(dl_dst=MacAddress(mac)),
                [Output(self.claim_port(i, egress_external_port))],
                priority=10,
            )


def build_shielded_router(
    network: Network, name: str, compare: CompareConfig
) -> ShieldedRouter:
    """Create the endpoint, ``compare.k`` replicas and the compare of a
    shielded router.

    Neighbours are attached afterwards with :meth:`ShieldedRouter.
    attach_neighbor`.
    """
    if compare.k < 1:
        raise NetworkError(f"shielded router needs k >= 1, got {compare.k}")
    sim, trace = network.sim, network.trace
    alarms = AlarmSink(trace)

    endpoint = CombinerEndpoint(
        sim,
        f"{name}_e",
        trace_bus=trace,
        proc_time=1e-6,
        proc_per_byte=2e-9,
        mode=MODE_COMBINE,
        alarm_sink=alarms,
    )
    network.add_node(endpoint)

    replicas: List[OpenFlowSwitch] = []
    for i in range(compare.k):
        replica = OpenFlowSwitch(
            sim,
            f"{name}_r{i}",
            trace_bus=trace,
            proc_time=5e-6,
            proc_per_byte=2.5e-9,
        )
        network.add_node(replica)
        replicas.append(replica)

    core, compare_host = attach_inline_compare(
        network, name, compare, (endpoint,), alarms, **_COMPARE_LINK
    )
    return ShieldedRouter(
        network, name, endpoint, replicas, compare_host, core, alarms
    )
