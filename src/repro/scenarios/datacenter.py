"""The Section VI case study: a datacenter routing attack.

A Clos/fat-tree pod slice carries ICMP echo traffic from ``vm1`` to the
firewall ``fw1`` over *tunnel 2*: ``vm1 — edge2 — agg1 — edge1 — fw1``.
Routing is on MAC destination addresses only, as in the paper.

Three scenarios, exactly as Section VI runs them:

1. **baseline** — all switches benign; 10 echo cycles complete, and
   tcpdump-style taps on every interface confirm no test packet strays
   off the path (packet-lifecycle spans cross-check the tap counts).
2. **attack** — the aggregation switch mirrors fw1-bound packets to a
   core switch (which forwards the copies on to fw1) and drops every
   packet addressed to vm1: 20 requests arrive at fw1, 0 responses
   arrive at vm1.
3. **protected** — the malicious aggregation switch is placed inside a
   NetCo shielded router with two benign replicas: the mirrored copies
   reach the compare but never win a majority, responses arrive with
   2-of-3 votes, and all 10 cycles complete.

Each run is a slice from :func:`build_pod_slice` (for the protected run
the registered scenario ``fattree_shielded3``), :func:`mount_attack` on
``agg1`` and :func:`run_echo_test`; the ``casestudy.run`` task puts them
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.adversary.behaviors import match_dst_mac
from repro.adversary.mirror import MirrorAndDropBehavior
from repro.core.combiner import (
    CombinerChain,
    CombinerChainParams,
    build_combiner_chain,
)
from repro.core.compare import CompareConfig
from repro.net.host import Host
from repro.net.packet import Icmp, Packet
from repro.net.topology import Network
from repro.obs.spans import PacketTracer
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch
from repro.traffic.ping import Pinger

#: nodes on the benign path of tunnel 2 (hosts included); a shielded
#: ``agg1``'s own nodes (``agg1_*``) are on it too
BENIGN_PATH = ("vm1", "edge2", "agg1", "edge1", "fw1")

Agg1 = Union[OpenFlowSwitch, CombinerChain]

#: the shielded ``agg1`` (1 Gbit/s 2 µs external and claim-links, a 5 µs
#: in-band compare link); only the compare is the caller's
SHIELD = CombinerChainParams(
    endpoints=1,
    router_proc_time=5e-6,
    router_proc_per_byte=2.5e-9,
    endpoint_proc_per_byte=2e-9,
    shared_cpu=False,
    switch_service_queue=1000,
    compare_link_delay=5e-6,
)


@dataclass
class ScreeningReport:
    """What one screening method (taps, or spans) observed."""

    #: test packets seen per node (tap counts, requests + responses)
    per_node: Dict[str, int] = field(default_factory=dict)
    #: test packets observed at nodes off the benign path
    strays: int = 0
    #: names of off-path nodes that saw test packets
    stray_nodes: List[str] = field(default_factory=list)


@dataclass
class CaseStudyResult:
    """Outcome of one case-study scenario run."""

    scenario: str
    requests_sent: int
    requests_at_fw1: int
    responses_at_vm1: int
    screening: ScreeningReport
    #: the same screening, derived from packet-lifecycle spans instead of
    #: taps; the two must agree (tested) — spans are the cheaper substrate
    #: because they can be sampled
    span_screening: Optional[ScreeningReport] = None
    compare_released: int = 0
    compare_expired_unreleased: int = 0
    single_source_alarms: int = 0


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
def build_pod_slice(
    seed: int = 0, compare: Optional[CompareConfig] = None
) -> Tuple[Network, Agg1]:
    """Build the pod slice with every route installed.

    ``agg1`` is a plain switch, or with ``compare`` a shielded router of
    ``compare.k`` replicas.  The slice keeps its own link and switch
    constants.
    """
    net = Network(seed=seed)
    for name in ("edge1", "edge2", "agg2", "core1", "core2"):
        net.add_node(
            OpenFlowSwitch(net.sim, name, trace_bus=net.trace, proc_time=5e-6)
        )
    fw1 = net.add_host("fw1", stack_delay=10e-6)
    vm1 = net.add_host("vm1", stack_delay=10e-6)
    vm2 = net.add_host("vm2", stack_delay=10e-6)
    link = dict(rate_bps=1e9, delay=2e-6)
    node = net.node
    net.connect(node("edge1"), fw1, **link)
    net.connect(node("edge2"), vm1, **link)
    net.connect(node("edge2"), vm2, **link)
    # agg2 connects both edges (the pod's second aggregation layer)
    net.connect(node("agg2"), node("edge1"), **link)
    net.connect(node("agg2"), node("edge2"), **link)
    net.connect(node("core2"), node("agg2"), **link)

    agg1: Agg1
    if compare is None:
        agg1 = OpenFlowSwitch(net.sim, "agg1", trace_bus=net.trace, proc_time=5e-6)
        net.add_node(agg1)
        net.connect(agg1, node("edge1"), **link)
        net.connect(agg1, node("edge2"), **link)
        net.connect(node("core1"), agg1, **link)
        hop = agg1.name
    else:
        agg1 = build_combiner_chain(
            net, "agg1", replace(SHIELD, k=compare.k, compare=compare)
        )
        external = {
            neighbour: agg1.attach_neighbor(node(neighbour))
            for neighbour in ("edge1", "edge2", "core1")
        }
        hop = agg1.endpoint_a.name

    def route(node_name: str, dst: Host, next_hop: str) -> None:
        node(node_name).install(
            Match(dl_dst=dst.mac),
            [Output(net.port_no_between(node_name, next_hop))],
            priority=10,
        )

    # toward fw1 (tunnel 2 forward direction)
    route("edge2", fw1, hop)
    route("edge1", fw1, "fw1")
    # the core forwards fw1-bound packets back down through agg1 —
    # this is how the mirrored copies reach fw1 in the attack run
    route("core1", fw1, hop)
    route("agg2", fw1, "edge1")
    route("core2", fw1, "agg2")
    # toward vm1 (tunnel 2 reverse direction)
    route("edge2", vm1, "vm1")
    route("edge1", vm1, hop)
    route("core1", vm1, hop)
    route("agg2", vm1, "edge2")
    route("core2", vm1, "agg2")
    # agg1 itself: a shielded one routes on every replica, toward the
    # egress its replicas claim
    for dst, neighbour in ((fw1, "edge1"), (vm1, "edge2")):
        if compare is None:
            route("agg1", dst, neighbour)
        else:
            agg1.install_mac_route(dst.mac, external[neighbour])
    return net, agg1


def mount_attack(network: Network, agg1: Agg1, replica: int = 2) -> None:
    """Compromise ``agg1``: mirror fw1-bound packets toward core1 and drop
    every packet addressed to vm1.

    In a shielded ``agg1`` the compromised switch is replica ``replica``,
    and its "port to the core switch" is its claim-link for that egress.
    """
    fw1, vm1 = network.host("fw1"), network.host("vm1")
    if isinstance(agg1, OpenFlowSwitch):
        switch = agg1
        mirror_port = network.port_no_between("agg1", "core1")
        mirror_in_ports = frozenset({network.port_no_between("agg1", "edge2")})
    else:
        switch = agg1.router(replica)
        core1 = network.port_no_between(agg1.endpoint_a.name, "core1")
        mirror_port = agg1.claim_port(replica, core1)
        mirror_in_ports = None
    MirrorAndDropBehavior(
        mirror_port=mirror_port,
        mirror_selector=match_dst_mac(fw1.mac),
        drop_selector=match_dst_mac(vm1.mac),
        mirror_in_ports=mirror_in_ports,
    ).attach(switch)


# ----------------------------------------------------------------------
# screening (tcpdump taps + packet-lifecycle spans)
# ----------------------------------------------------------------------
def _screening(counters: Dict[str, int]) -> ScreeningReport:
    report = ScreeningReport(per_node=dict(counters))
    for node_name, count in counters.items():
        on_path = node_name in BENIGN_PATH or node_name.startswith("agg1_")
        if not on_path and count > 0:
            report.strays += count
            report.stray_nodes.append(node_name)
    report.stray_nodes.sort()
    return report


def screening_from_spans(tracer: PacketTracer) -> ScreeningReport:
    """The tap screening, re-expressed over packet-lifecycle spans.

    ``span.hop`` fires on every port delivery before the administrative
    block is applied — exactly where the tcpdump taps sit — so counting
    ICMP hop events per node reproduces the tap counters for every
    traced packet.
    """
    counters: Dict[str, int] = {}
    for spans in tracer.trajectories().values():
        for record in spans:
            if record.topic == "span.hop" and record.data.get("kind") == "Icmp":
                counters[record.source] = counters.get(record.source, 0) + 1
    return _screening(counters)


# ----------------------------------------------------------------------
# the echo test every run ends in
# ----------------------------------------------------------------------
#: echo requests leave this far apart; the run ends ``ECHO_DRAIN`` after
#: the last one is due
ECHO_INTERVAL = 1e-3
ECHO_DRAIN = 30e-3


def run_echo_test(
    network: Network, agg1: Agg1, scenario: str, echo_count: int = 10
) -> CaseStudyResult:
    """``echo_count`` pings vm1 -> fw1, 1 ms apart, screened by taps on
    every interface and by spans."""
    counters: Dict[str, int] = {}

    def tap_for(node_name: str):
        def tap(packet: Packet) -> None:
            if isinstance(packet.l4, Icmp):
                counters[node_name] = counters.get(node_name, 0) + 1

        return tap

    for name, node in network.nodes.items():
        for port in node.ports.values():
            port.taps.append(tap_for(name))
    tracer = PacketTracer(network.trace, sample_rate=1.0)
    tracer.attach(network)

    fw1, vm1 = network.host("fw1"), network.host("vm1")
    pinger = Pinger(vm1, dst_mac=fw1.mac, dst_ip=fw1.ip)
    pinger.run(echo_count, interval=ECHO_INTERVAL)
    network.run(until=network.sim.now + echo_count * ECHO_INTERVAL + ECHO_DRAIN)

    result = CaseStudyResult(
        scenario=scenario,
        requests_sent=pinger.sent,
        # fw1 only ever receives echo requests: its tap count is theirs
        requests_at_fw1=counters.get("fw1", 0),
        responses_at_vm1=pinger.received,
        screening=_screening(counters),
        span_screening=screening_from_spans(tracer),
    )
    if not isinstance(agg1, OpenFlowSwitch):
        core = agg1.compare_core
        result.compare_released = core.stats.released
        result.compare_expired_unreleased = core.stats.expired_unreleased
        result.single_source_alarms = core.alarms.count("single_source_packet")
    return result
