"""Coarse-granular NetCo: duplicate an entire transport network.

Section IX: "The robust combiner concept could also be implemented on a
more coarse-granular level: for instance, a security critical transport
network could be duplicated entirely, splitting and combining traffic
only at the ingress and outgress, respectively."

Here each combiner *branch* is not a single router but a whole transport
network — a chain of ``depth`` switches (one vendor per network).  The
trusted endpoints split at the ingress and vote at the egress exactly as
in the fine-grained design; a compromise anywhere inside one replica
network is outvoted by the other replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.alarms import AlarmSink
from repro.core.combiner import attach_inline_compare
from repro.core.compare import CompareConfig, CompareCore
from repro.core.endpoint import CombinerEndpoint
from repro.net.addresses import MacAddress
from repro.net.host import Host
from repro.net.topology import Network
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch


@dataclass
class TransportCombiner:
    """A built coarse-granular combiner over k replica networks."""

    network: Network
    endpoint_in: CombinerEndpoint
    endpoint_out: CombinerEndpoint
    #: replica_networks[branch][hop] — the switches of each transport net
    replica_networks: List[List[OpenFlowSwitch]] = field(default_factory=list)
    compare_core: Optional[CompareCore] = None
    alarms: Optional[AlarmSink] = None

    @property
    def k(self) -> int:
        return len(self.replica_networks)

    @property
    def depth(self) -> int:
        return len(self.replica_networks[0]) if self.replica_networks else 0

    def switch(self, branch: int, hop: int) -> OpenFlowSwitch:
        return self.replica_networks[branch][hop]

    def install_mac_route(self, mac: MacAddress, toward: str) -> None:
        """Route ``mac`` through every replica network ('in' -> 'out'
        direction for 'out', reverse for 'in')."""
        if toward not in ("in", "out"):
            raise ValueError(f"toward must be 'in' or 'out', got {toward!r}")
        net = self.network
        for chain in self.replica_networks:
            hops = chain if toward == "out" else list(reversed(chain))
            terminal = self.endpoint_out if toward == "out" else self.endpoint_in
            for here, nxt in zip(hops, hops[1:] + [terminal]):
                nxt_name = nxt.name if not isinstance(nxt, str) else nxt
                here.install(
                    Match(dl_dst=MacAddress(mac)),
                    [Output(net.port_no_between(here.name, nxt_name))],
                    priority=10,
                )


def build_transport_combiner(
    network: Network,
    name: str,
    k: int = 3,
    depth: int = 3,
    link_rate_bps: float = 1e9,
    link_delay: float = 2e-6,
    switch_proc_time: float = 5e-6,
    endpoint_proc_time: float = 1e-6,
    compare: Optional[CompareConfig] = None,
) -> TransportCombiner:
    """Wire k parallel transport networks of ``depth`` switches each
    between two trusted endpoints with an in-band compare."""
    if k < 1 or depth < 1:
        raise ValueError(f"need k >= 1 and depth >= 1, got k={k}, depth={depth}")
    sim, trace = network.sim, network.trace
    alarms = AlarmSink(trace)
    link = dict(rate_bps=link_rate_bps, delay=link_delay)

    endpoint_in = CombinerEndpoint(
        sim, f"{name}_in", trace_bus=trace, proc_time=endpoint_proc_time,
        alarm_sink=alarms,
    )
    endpoint_out = CombinerEndpoint(
        sim, f"{name}_out", trace_bus=trace, proc_time=endpoint_proc_time,
        alarm_sink=alarms,
    )
    network.add_node(endpoint_in)
    network.add_node(endpoint_out)
    endpoint_out.address_registry = endpoint_in.address_registry

    replicas: List[List[OpenFlowSwitch]] = []
    for branch in range(k):
        chain: List[OpenFlowSwitch] = []
        for hop in range(depth):
            switch = OpenFlowSwitch(
                sim, f"{name}_n{branch}_s{hop}", trace_bus=trace,
                proc_time=switch_proc_time,
            )
            network.add_node(switch)
            if chain:
                network.connect(chain[-1], switch, **link)
            chain.append(switch)
        first_link = network.connect(endpoint_in, chain[0], **link)
        network.connect(chain[-1], endpoint_out, **link)
        endpoint_in.assign_branch(first_link.a.port_no, branch)
        endpoint_out.assign_branch(
            network.port_no_between(endpoint_out.name, chain[-1].name), branch
        )
        replicas.append(chain)

    config = compare or CompareConfig(k=k, buffer_timeout=2e-3)
    from dataclasses import replace as dc_replace

    config = dc_replace(config, k=k)
    core, _ = attach_inline_compare(
        network, name, config, (endpoint_in, endpoint_out), alarms, **link
    )

    return TransportCombiner(
        network=network,
        endpoint_in=endpoint_in,
        endpoint_out=endpoint_out,
        replica_networks=replicas,
        compare_core=core,
        alarms=alarms,
    )


def build_transport_scenario(
    k: int = 3,
    depth: int = 3,
    seed: int = 0,
) -> tuple:
    """A ready-to-run scenario: src — [k replica networks] — dst."""
    net = Network(seed=seed)
    combiner = build_transport_combiner(net, "tn", k=k, depth=depth)
    src = net.add_host("src")
    dst = net.add_host("dst")
    net.connect(src, combiner.endpoint_in, rate_bps=1e9, delay=2e-6)
    net.connect(dst, combiner.endpoint_out, rate_bps=1e9, delay=2e-6)
    combiner.install_mac_route(dst.mac, toward="out")
    combiner.install_mac_route(src.mac, toward="in")
    return net, combiner, src, dst
