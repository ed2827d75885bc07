"""Fat-tree (Clos) datacenter topology builder.

Builds the standard k-ary fat-tree of Al-Fares et al.: ``k`` pods, each
with ``k/2`` edge and ``k/2`` aggregation switches, ``(k/2)^2`` core
switches, and ``k/2`` hosts per edge switch ("rack").  This is the
topology in Figure 1 of the NetCo paper (servers in racks, racks in pods,
pods joined by core routers) and the substrate for the Section VI
datacenter routing-attack case study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.net.host import Host
from repro.net.node import Datapath
from repro.net.topology import Network
from repro.openflow.switch import OpenFlowSwitch


@dataclass
class FatTree:
    """Handles to every element of a built fat-tree."""

    network: Network
    k: int
    core: List[Datapath] = field(default_factory=list)
    # aggregation[pod][i], edge[pod][i]
    aggregation: List[List[Datapath]] = field(default_factory=list)
    edge: List[List[Datapath]] = field(default_factory=list)
    # hosts[pod][edge_index][host_index]
    hosts: List[List[List[Host]]] = field(default_factory=list)

    def host(self, pod: int, edge: int, index: int) -> Host:
        return self.hosts[pod][edge][index]


def build_fat_tree(
    k: int = 4,
    network: Optional[Network] = None,
    link_rate_bps: float = 1e9,
    link_delay: float = 5e-6,
    switch_proc_time: float = 0.0,
    host_stack_delay: float = 0.0,
    seed: int = 0,
    switch_factory=None,
) -> FatTree:
    """Build a k-ary fat-tree.  ``k`` must be even and >= 2.

    ``switch_factory(layer, name, network)`` (layer in ``core``/``agg``/
    ``edge``) may return another datapath for specific positions — e.g.
    a virtual combiner's trusted edge, a
    :class:`~repro.core.virtual.VirtualIngress` or
    :class:`~repro.core.virtual.VirtualEgress` — or ``None`` to get the
    default :class:`OpenFlowSwitch`.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    net = network or Network(seed=seed)
    half = k // 2
    tree = FatTree(network=net, k=k)

    def make_switch(name: str, layer: str = "core") -> Datapath:
        switch = None
        if switch_factory is not None:
            switch = switch_factory(layer, name, net)
        if switch is None:
            switch = OpenFlowSwitch(
                net.sim, name, trace_bus=net.trace, proc_time=switch_proc_time
            )
        net.add_node(switch)
        return switch

    tree.core = [make_switch(f"core{i}", "core") for i in range(half * half)]

    host_index = 0
    for pod in range(k):
        aggs = [make_switch(f"agg{pod}_{i}", "agg") for i in range(half)]
        edges = [make_switch(f"edge{pod}_{i}", "edge") for i in range(half)]
        tree.aggregation.append(aggs)
        tree.edge.append(edges)

        pod_hosts: List[List[Host]] = []
        for e, edge_switch in enumerate(edges):
            rack: List[Host] = []
            for h in range(half):
                host_index += 1
                host = net.add_host(
                    f"h{pod}_{e}_{h}", stack_delay=host_stack_delay
                )
                net.connect(
                    edge_switch, host, rate_bps=link_rate_bps, delay=link_delay
                )
                rack.append(host)
            pod_hosts.append(rack)
        tree.hosts.append(pod_hosts)

        # edge <-> aggregation full mesh within the pod
        for edge_switch in edges:
            for agg_switch in aggs:
                net.connect(
                    agg_switch, edge_switch, rate_bps=link_rate_bps, delay=link_delay
                )

    # aggregation <-> core: agg switch i in each pod connects to the i-th
    # group of half core switches.
    for pod in range(k):
        for i, agg_switch in enumerate(tree.aggregation[pod]):
            for j in range(half):
                core_switch = tree.core[i * half + j]
                net.connect(
                    core_switch, agg_switch, rate_bps=link_rate_bps, delay=link_delay
                )

    return tree
