"""Combiner assembly: wiring hubs, untrusted routers and the compare.

Two things live here:

* :func:`build_combiner_chain` — the Figure 3 arrangement: two trusted
  endpoints (``s1``, ``s2``) bracketing ``k`` untrusted branches in a
  parallel circuit, with a dedicated compare host (``h3``) attached
  in-band to both endpoints.  It is the only code that wires endpoints
  × branches × compare: Central3/Central5/Dup3/Dup5/Linespeed/POX3, the
  Section IX coarse-grained combiner (``depth`` switches per branch) and
  Section IX sampled detection (``sample_rate``) are all
  parameterisations of it.

* :class:`CompareHost` — the trusted server running the compare module,
  attached to the data plane like the paper's C process: packets reach it
  over real links (so the compare link's bandwidth and latency cost is
  modelled), carrying the collecting endpoint's branch tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.alarms import AlarmSink
from repro.core.compare import CompareConfig, CompareContext, CompareCore
from repro.core.endpoint import MODE_COMBINE, MODE_DUP, CombinerEndpoint
from repro.core.sampling import DivergenceWatcher, SamplingEndpoint
from repro.net.addresses import MacAddress
from repro.net.node import NetworkError, Node, Port
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.obs.metrics import StatBlock
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch
from repro.sim import CpuResource, Simulator, TraceBus
from repro.transport import (
    ROLE_COLLECT,
    ROLE_RELEASE,
    DesTransport,
    Session,
    SessionSpec,
    Transport,
)


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
            self.trace("compare_host.unregistered_port", port=in_port.port_no)
            return
        meta = packet.meta or {}  # the DES collect wire format
        branch = meta.get("branch")
        if branch is None:
            self.stats.dropped_untagged += 1
            self.trace("compare_host.untagged_packet", port=in_port.port_no)
            return
        session, context = registered
        # the collect session's receive, spelled out: count, then submit
        session.stats.rx_messages += 1
        self.core.submit(packet, branch, context, meta.get("claim"))


def attach_inline_compare(
    network: Network,
    name: str,
    config: CompareConfig,
    endpoints: Sequence[CombinerEndpoint],
    alarms: AlarmSink,
    **link: object,
) -> Tuple[CompareCore, CompareHost]:
    """Build ``<name>_compare`` on its dedicated host ``<name>_h3`` and
    wire the host in-band to each of ``endpoints`` (``link`` are the
    :meth:`Network.connect` options of those links)."""
    core = CompareCore(
        network.sim,
        config,
        name=f"{name}_compare",
        alarm_sink=alarms,
        trace_bus=network.trace,
    )
    host = CompareHost(network.sim, f"{name}_h3", core, trace_bus=network.trace)
    network.add_node(host)
    for endpoint in endpoints:
        network.connect(endpoint, host, **link)
        endpoint.assign_compare_port(
            network.port_no_between(endpoint.name, host.name)
        )
        host.register_endpoint(
            network.port_no_between(host.name, endpoint.name), endpoint
        )
    return core, host


@dataclass
class CombinerChainParams:
    """All tunables of a Figure 3 combiner chain.

    The defaults reproduce the calibrated testbed of the performance
    benchmarks; see ``repro.scenarios.testbed`` for the per-scenario
    values and DESIGN.md for the calibration rationale.
    """

    k: int = 3
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
    mark_sources: bool = False
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
    """Handles to every element of a built Figure 3 chain."""

    def __init__(
        self,
        network: Network,
        name: str,
        endpoint_a: CombinerEndpoint,
        endpoint_b: CombinerEndpoint,
        branches: List[List[OpenFlowSwitch]],
        compare_host: Optional[CompareHost],
        compare_core: Optional[CompareCore],
        alarms: AlarmSink,
        controller=None,
        watcher=None,
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

    @property
    def k(self) -> int:
        return len(self.routers)

    @property
    def transport(self) -> Transport:
        """Endpoint A's transport (each node of the chain builds its own)."""
        return self.endpoint_a.transport

    def install_mac_route(self, mac: MacAddress, toward: str) -> None:
        """Program every untrusted switch to send ``mac`` toward endpoint
        'a' or 'b', hop by hop along its branch (the paper routes on MAC
        destination only)."""
        if toward not in ("a", "b"):
            raise ValueError(f"toward must be 'a' or 'b', got {toward!r}")
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
    sim, trace = network.sim, network.trace
    alarms = alarm_sink or AlarmSink(trace)
    cpu = CpuResource(f"{name}.cpu") if params.shared_cpu else None

    make_endpoint = CombinerEndpoint
    if sampled:
        make_endpoint = partial(SamplingEndpoint, sample_rate=params.sample_rate)
    endpoint_a, endpoint_b = (
        make_endpoint(
            sim,
            f"{name}_{suffix}",
            trace_bus=trace,
            proc_time=params.endpoint_proc_time,
            proc_per_byte=params.endpoint_proc_per_byte,
            cpu=cpu,
            mode=params.mode,
            mark_sources=params.mark_sources,
            alarm_sink=alarms,
            service_queue_capacity=params.switch_service_queue,
        )
        for suffix in ("sA", "sB")
    )
    network.add_node(endpoint_a)
    network.add_node(endpoint_b)
    # Trusted endpoints share their address registry (they are jointly
    # administered and already share the compare host).
    endpoint_b.address_registry = endpoint_a.address_registry

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
        if params.mark_sources:
            # Branch markers legitimately differentiate the copies'
            # dl_src, so the compare votes on src-masked bytes.
            from repro.core.policy import mask_src_mac_policy

            config = replace(config, policy=mask_src_mac_policy(config.policy))
        if params.transport == "inline":
            compare_core, compare_host = attach_inline_compare(
                network,
                name,
                config,
                (endpoint_a, endpoint_b),
                alarms,
                rate_bps=params.compare_link_rate_bps,
                delay=params.compare_link_delay,
                queue_capacity=params.queue_capacity,
            )
            if sampled:
                endpoint_a.policy_core = endpoint_b.policy_core = compare_core
                watcher = DivergenceWatcher(compare_core)
        elif params.transport == "controller":
            # POX3: the compare lives in a controller application; copies
            # cross the OpenFlow control channel in both directions.
            from repro.apps.combiner_app import PoxStyleCompareApp

            compare_core = CompareCore(
                sim,
                config,
                name=f"{name}_compare",
                alarm_sink=alarms,
                trace_bus=trace,
            )
            controller = PoxStyleCompareApp(
                sim,
                compare_core,
                name=f"{name}_pox",
                trace_bus=trace,
                proc_time=params.controller_proc_time,
            )
            for endpoint in (endpoint_a, endpoint_b):
                endpoint.connect_controller(controller, latency=params.controller_latency)
                endpoint.attach_compare_controller(compare_core)
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
    )
