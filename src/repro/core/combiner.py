"""Combiner assembly: wiring hubs, untrusted routers and the compare.

Two things live here:

* :func:`build_combiner_chain` — the Figure 3 arrangement: two trusted
  endpoints (``s1``, ``s2``) bracketing ``k`` untrusted branches in a
  parallel circuit, with a dedicated compare host (``h3``) attached
  in-band to both endpoints.  It is the only code that wires endpoints
  × branches × compare: Central3/Central5/Dup3/Dup5/Linespeed/POX3, the
  Section IX coarse-grained combiner (``depth`` switches per branch),
  Section IX sampled detection (``sample_rate``) and Figure 2's shielded
  router (``endpoints=1``: one endpoint, one *claim-link* per replica and
  external port) are all parameterisations of it.

* :class:`CompareHost` — the trusted server running the compare module,
  attached to the data plane like the paper's C process: packets reach it
  over real links (so the compare link's bandwidth and latency cost is
  modelled), carrying the collecting endpoint's branch tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.alarms import AlarmSink
from repro.core.compare import CompareConfig, CompareContext, CompareCore
from repro.core.endpoint import MODE_COMBINE, MODE_DUP, CombinerEndpoint
from repro.net.addresses import MacAddress
from repro.net.link import Link
from repro.net.node import Datapath, NetworkError, Node, Port
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.obs.metrics import StatBlock
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch
from repro.sim.engine import CpuResource, Simulator
from repro.sim.trace import TraceBus
from repro.transport.base import (
    ROLE_COLLECT,
    ROLE_RELEASE,
    Session,
    SessionSpec,
)
from repro.transport.des import DesTransport


class CompareHostStats(StatBlock):
    """Copies the compare host refuses before they reach the core."""

    __slots__ = ("dropped_unregistered_port", "dropped_untagged")


class CompareHost(Node):
    """The dedicated trusted server (``h3``) running the compare module.

    Each wired port is registered against the collecting endpoint at the
    other end; packets arriving there carry the branch tag the endpoint
    attached, and releases travel back out the same port.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        core: CompareCore,
        trace_bus: Optional[TraceBus] = None,
    ) -> None:
        super().__init__(sim, name, trace_bus)
        self.core = core
        self.transport = DesTransport(sim, name=f"{name}.transport")
        self.stats = CompareHostStats().publish("compare_host", host=name)
        #: per registered port: its collect session and the endpoint's
        #: compare context
        self._collect_by_port: Dict[int, Tuple[Session, CompareContext]] = {}

    def register_endpoint(self, port_no: int, endpoint: CombinerEndpoint) -> None:
        """Associate a local port with the endpoint it serves."""
        port = self.port(port_no)
        # Releases travel back out the same port; the release-role session
        # re-tags the copy with the claim (egress decision) only — the
        # branch tag is spent once the vote resolves.
        release = self.transport.session(
            SessionSpec(endpoint.name, ROLE_RELEASE), port=port
        )
        context = CompareContext(
            scope=endpoint.name,
            release=release.send,
            block_branch=endpoint.block_branch_ingress,
        )
        collect = self.transport.session(
            SessionSpec(endpoint.name, ROLE_COLLECT), port=port
        )
        self._collect_by_port[port_no] = (collect, context)

    def receive(self, packet: Packet, in_port: Port) -> None:
        registered = self._collect_by_port.get(in_port.port_no)
        if registered is None:
            self.stats.dropped_unregistered_port += 1
            if self.tracing("compare_host.unregistered_port"):
                self.trace("compare_host.unregistered_port", port=in_port.port_no)
            return
        meta = packet.meta or {}  # the DES collect wire format
        branch = meta.get("branch")
        if branch is None:
            self.stats.dropped_untagged += 1
            if self.tracing("compare_host.untagged_packet"):
                self.trace("compare_host.untagged_packet", port=in_port.port_no)
            return
        session, context = registered
        # the collect session's receive, spelled out: count, then submit
        session.stats.rx_messages += 1
        self.core.submit(packet, branch, context, meta.get("claim"))


@dataclass
class CombinerChainParams:
    """All tunables of a Figure 3 combiner chain.

    The defaults reproduce the calibrated testbed of the performance
    benchmarks; see ``repro.scenarios.testbed`` for the per-scenario
    values and DESIGN.md for the calibration rationale.
    """

    k: int = 3
    #: 2 = a Figure 3 chain (one external port per endpoint); 1 = a
    #: Figure 2 shielded router (one endpoint, neighbours attached later)
    endpoints: int = 2
    mode: str = MODE_COMBINE  # 'combine' (CentralK) or 'dup' (DupK)
    link_rate_bps: float = 1e9
    link_delay: float = 2e-6
    queue_capacity: int = 100
    router_proc_time: float = 6e-6
    router_proc_per_byte: float = 0.0
    endpoint_proc_time: float = 1e-6
    endpoint_proc_per_byte: float = 3e-9
    #: run every switch datapath (endpoints + untrusted routers) on one
    #: shared CPU, as Mininet on a single machine does
    shared_cpu: bool = True
    #: per-switch bound on packets awaiting datapath service
    switch_service_queue: int = 64
    compare_link_rate_bps: float = 1e9
    compare_link_delay: float = 2e-6
    compare: CompareConfig = field(default_factory=CompareConfig)
    #: 'inline' = dedicated compare host on the data plane (the paper's
    #: C prototype); 'controller' = compare as a controller app (POX3).
    transport: str = "inline"
    controller_latency: float = 100e-6
    controller_proc_time: float = 120e-6
    #: switches per branch; > 1 is the Section IX coarse-grained combiner
    #: (each branch a whole replica transport network)
    depth: int = 1
    #: Section IX sampled detection: branch 0 forwards unvoted and this
    #: fraction of packets is compared out of band (None = vote on all)
    sample_rate: Optional[float] = None

    def for_k(self, k: int) -> "CombinerChainParams":
        return replace(self, k=k, compare=replace(self.compare, k=k))


class CombinerChain:
    """Handles to every element of a built combiner: the trusted
    ingress and egress elements (one object for a shielded router), the
    untrusted branches and the compare."""

    def __init__(
        self,
        network: Network,
        name: str,
        endpoint_a: Datapath,
        endpoint_b: Datapath,
        branches: List[List[OpenFlowSwitch]],
        compare_host: Optional[CompareHost],
        compare_core: Optional[CompareCore],
        alarms: AlarmSink,
        controller=None,
        watcher=None,
        link: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.network = network
        self.name = name
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        #: branches[i][hop] — the untrusted switches of branch i, from
        #: endpoint A's side to endpoint B's
        self.branches = branches
        #: each branch's first switch (the whole branch at depth 1)
        self.routers = [branch[0] for branch in branches]
        self.compare_host = compare_host
        self.compare_core = compare_core
        self.alarms = alarms
        self.controller = controller
        #: the sampling compare's DivergenceWatcher (``sample_rate`` only)
        self.watcher = watcher
        #: Network.connect options of the links attach_neighbor makes
        self._link = link or {}
        #: external port -> each replica's port on its claim-link
        self._claim_ports: Dict[int, List[int]] = {}

    @property
    def k(self) -> int:
        return len(self.routers)

    def attach_neighbor(self, neighbor: Node) -> int:
        """Wire ``neighbor`` to a fresh external port of a one-endpoint
        combiner, as it was wired to the router the combiner replaces,
        with one claim-link per replica standing for that port.  Returns
        the external port number."""
        endpoint = self.endpoint_a
        if endpoint is not self.endpoint_b:
            raise NetworkError(f"{self.name}: only a one-endpoint combiner "
                               "attaches neighbours")
        external_port = self.network.connect(endpoint, neighbor, **self._link).a.port_no
        claim_ports: List[int] = []
        for i, replica in enumerate(self.routers):
            link = self.network.connect(endpoint, replica, **self._link)
            endpoint.assign_branch(link.a.port_no, branch=i, claim=external_port)
            claim_ports.append(link.b.port_no)
        self._claim_ports[external_port] = claim_ports
        return external_port

    def claim_port(self, replica: int, external_port: int) -> int:
        """Replica ``replica``'s port on the claim-link that stands for
        ``external_port``: sending there claims that egress."""
        ports = self._claim_ports.get(external_port)
        if ports is None:
            raise NetworkError(
                f"{self.name}: external port {external_port} not attached"
            )
        return ports[replica]

    def claim_links(self) -> Iterator[Tuple[int, str, Link]]:
        """``(replica, neighbour name, claim-link)`` for every claim-link,
        in external-port order (none on a two-endpoint chain)."""
        for external_port, ports in self._claim_ports.items():
            neighbour = self.endpoint_a.port(external_port).peer.node.name
            for i, port_no in enumerate(ports):
                yield i, neighbour, self.routers[i].port(port_no).link

    def install_mac_route(self, mac: MacAddress, toward: Union[str, int]) -> None:
        """Program every untrusted switch to send ``mac`` toward endpoint
        'a' or 'b', hop by hop along its branch (the paper routes on MAC
        destination only) — or, on a one-endpoint combiner, out the
        claim-link for external port ``toward``."""
        if isinstance(toward, int):
            for i, replica in enumerate(self.routers):
                replica.install(
                    Match(dl_dst=mac), [Output(self.claim_port(i, toward))], priority=10
                )
            return
        if toward not in ("a", "b"):
            raise ValueError(f"toward must be 'a', 'b' or a port, got {toward!r}")
        for branch in self.branches:
            if toward == "a":
                hops = [*reversed(branch), self.endpoint_a]
            else:
                hops = [*branch, self.endpoint_b]
            for here, nxt in zip(hops, hops[1:]):
                out_port = self.network.port_no_between(here.name, nxt.name)
                here.install(Match(dl_dst=mac), [Output(out_port)], priority=10)

    def router(self, index: int) -> OpenFlowSwitch:
        return self.routers[index]


def build_combiner_chain(
    network: Network,
    name: str,
    params: CombinerChainParams,
    alarm_sink: Optional[AlarmSink] = None,
) -> CombinerChain:
    """Build endpoints, routers, compare and internal wiring (Figure 3).

    External hosts are attached afterwards with ``network.connect(host,
    chain.endpoint_a)`` — any endpoint port that is not a branch or the
    compare attachment is treated as external.
    """
    if params.k < 1 or params.depth < 1:
        raise NetworkError(
            f"combiner needs at least one router per branch, got "
            f"k={params.k}, depth={params.depth}"
        )
    if params.mode not in (MODE_COMBINE, MODE_DUP):
        raise NetworkError(f"unknown combiner mode {params.mode!r}")
    sampled = params.sample_rate is not None
    if sampled and (params.mode != MODE_COMBINE or params.transport != "inline"):
        raise NetworkError("sampled detection needs an inline compare to sample for")
    if params.endpoints not in (1, 2):
        raise NetworkError(f"a combiner has 1 or 2 endpoints, got {params.endpoints}")
    if params.endpoints == 1 and (
        params.mode != MODE_COMBINE or params.transport != "inline"
        or params.depth > 1 or sampled
    ):
        raise NetworkError(
            "a one-endpoint combiner votes on an inline compare over "
            "one-switch branches, unsampled"
        )
    sim, trace = network.sim, network.trace
    alarms = alarm_sink or AlarmSink(trace)
    cpu = CpuResource(f"{name}.cpu") if params.shared_cpu else None

    make_endpoint = CombinerEndpoint
    if sampled:
        from repro.core.sampling import DivergenceWatcher, SamplingEndpoint

        make_endpoint = partial(SamplingEndpoint, sample_rate=params.sample_rate)
    endpoints = [
        make_endpoint(
            sim,
            f"{name}_{suffix}",
            trace_bus=trace,
            proc_time=params.endpoint_proc_time,
            proc_per_byte=params.endpoint_proc_per_byte,
            cpu=cpu,
            mode=params.mode,
            service_queue_capacity=params.switch_service_queue,
        )
        for suffix in (("sA", "sB") if params.endpoints == 2 else ("e",))
    ]
    for endpoint in endpoints:
        network.add_node(endpoint)
    endpoint_a, endpoint_b = endpoints[0], endpoints[-1]

    link = dict(
        rate_bps=params.link_rate_bps,
        delay=params.link_delay,
        queue_capacity=params.queue_capacity,
    )
    branches: List[List[OpenFlowSwitch]] = []
    for i in range(params.k):
        branch = [
            OpenFlowSwitch(
                sim,
                # the trailing r<i> is what binds a strategy to its branch
                f"{name}_r{i}" if hop == 0 else f"{name}_h{hop}_r{i}",
                trace_bus=trace,
                proc_time=params.router_proc_time,
                proc_per_byte=params.router_proc_per_byte,
                cpu=cpu,
                service_queue_capacity=params.switch_service_queue,
            )
            for hop in range(params.depth)
        ]
        for switch in branch:
            network.add_node(switch)
        branches.append(branch)
        if params.endpoints == 1:
            continue  # the claim-links come with attach_neighbor
        link_a = network.connect(endpoint_a, branch[0], **link)
        for here, nxt in zip(branch, branch[1:]):
            network.connect(here, nxt, **link)
        network.connect(branch[-1], endpoint_b, **link)
        endpoint_a.assign_branch(link_a.a.port_no, i)
        endpoint_b.assign_branch(
            network.port_no_between(endpoint_b.name, branch[-1].name), i
        )

    compare_host: Optional[CompareHost] = None
    compare_core: Optional[CompareCore] = None
    controller = watcher = None
    if params.mode == MODE_COMBINE:
        config = replace(params.compare, k=params.k)
        if sampled:
            # In detection mode a diverging branch makes *every* sampled
            # packet expire as single-source entries — that is the signal,
            # not a crafted-packet flood, so the auto-block mitigation
            # stays off (it would end up blocking the honest primary).
            config = replace(config, craft_threshold=1 << 30)
        compare_core = CompareCore(
            sim, config, name=f"{name}_compare", alarm_sink=alarms, trace_bus=trace
        )
        if params.transport == "inline":
            # the compare's dedicated host, wired in-band to each endpoint
            compare_host = CompareHost(sim, f"{name}_h3", compare_core, trace_bus=trace)
            network.add_node(compare_host)
            for endpoint in endpoints:
                network.connect(
                    endpoint,
                    compare_host,
                    rate_bps=params.compare_link_rate_bps,
                    delay=params.compare_link_delay,
                    queue_capacity=params.queue_capacity,
                )
                endpoint.assign_compare_port(
                    network.port_no_between(endpoint.name, compare_host.name)
                )
                compare_host.register_endpoint(
                    network.port_no_between(compare_host.name, endpoint.name), endpoint
                )
            if sampled:
                endpoint_a.policy_core = endpoint_b.policy_core = compare_core
                watcher = DivergenceWatcher(compare_core)
        elif params.transport == "controller":
            # POX3: the compare lives in a controller application; copies
            # cross the OpenFlow control channel in both directions.
            from repro.apps.combiner_app import PoxStyleCompareApp

            controller = PoxStyleCompareApp(
                sim,
                compare_core,
                name=f"{name}_pox",
                trace_bus=trace,
                proc_time=params.controller_proc_time,
            )
            for endpoint in (endpoint_a, endpoint_b):
                controller.attach(endpoint, latency=params.controller_latency)
        else:
            raise NetworkError(f"unknown compare transport {params.transport!r}")

    return CombinerChain(
        network=network,
        name=name,
        endpoint_a=endpoint_a,
        endpoint_b=endpoint_b,
        branches=branches,
        compare_host=compare_host,
        compare_core=compare_core,
        alarms=alarms,
        controller=controller,
        watcher=watcher,
        link=link,
    )
