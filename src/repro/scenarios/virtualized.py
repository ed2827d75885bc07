"""The Section VII scenario: a *virtualized* NetCo over diverse paths.

Figure 9's setting: a transport network with several vendor-diverse
paths between two edge switches.  Instead of buying redundant hardware,
the ingress edge splits each protected flow into ``k`` tunnelled copies
over node-disjoint paths, and the egress edge recombines them with an
in-band compare.

The scenario builds a ``k``-path "ladder" network (one transit switch per
rung, alternating vendors), protects the ``src -> dst`` flow, and lets an
attack be mounted on any transit switch.  With ``k = 2`` misbehaviour is
*detected* (the vote never completes and an alarm is raised); with
``k = 3`` it is *prevented* (the majority still releases every packet).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.core.alarms import AlarmSink
from repro.core.combiner import CombinerChain
from repro.core.compare import CompareConfig, CompareCore
from repro.core.virtual import VID_BASE, VirtualEgress, VirtualIngress
from repro.net.addresses import MacAddress
from repro.net.host import Host
from repro.net.node import NetworkError
from repro.net.topology import Network
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch


@dataclass
class VirtualizedScenario:
    """A built Figure 9 ladder (edges and compare are on ``combiner``)."""

    network: Network
    src: Host
    dst: Host
    #: every wired transit, spare paths beyond the combiner's k included
    transits: List[OpenFlowSwitch]
    combiner: CombinerChain


def build_virtualized_scenario(
    k: int = 3,
    paths_available: Optional[int] = None,
    seed: int = 0,
    compare: Optional[CompareConfig] = None,
) -> VirtualizedScenario:
    """Build the ladder and provision the virtual combiner.

    ``paths_available`` transit paths are wired (default ``k``); the
    combiner uses the first ``k``.  Each transit switch stands in for a
    different vendor, so a single compromised transit models the paper's
    non-cooperation assumption.  ``compare`` defaults to a 5 µs compare
    with a 2 ms buffer timeout.
    """
    paths_available = paths_available if paths_available is not None else k
    if paths_available < k:
        raise ValueError(f"need at least {k} paths, got {paths_available}")
    net = Network(seed=seed)
    link = dict(rate_bps=1e9, delay=2e-6)
    switch_proc_time = 5e-6

    ingress = VirtualIngress(net.sim, "ingress", trace_bus=net.trace,
                             proc_time=switch_proc_time)
    egress = VirtualEgress(net.sim, "egress", trace_bus=net.trace,
                           proc_time=switch_proc_time)
    net.add_node(ingress)
    net.add_node(egress)

    src = net.add_host("src", stack_delay=10e-6)
    dst = net.add_host("dst", stack_delay=10e-6)
    net.connect(src, ingress, **link)
    net.connect(egress, dst, **link)

    transits: List[OpenFlowSwitch] = []
    for i in range(paths_available):
        transit = OpenFlowSwitch(
            net.sim, f"vendor{i}", trace_bus=net.trace, proc_time=switch_proc_time
        )
        net.add_node(transit)
        transits.append(transit)
        net.connect(ingress, transit, **link)
        net.connect(transit, egress, **link)

    # The egress forwards released (and unprotected) dst-bound packets on.
    egress.route(dst.mac, net.port_no_between("egress", "dst"))
    # Reverse direction (dst -> src) is left unprotected: it rides the
    # first transit, as ordinary traffic would.
    egress.route(src.mac, net.port_no_between("egress", transits[0].name))
    transits[0].install(
        Match(dl_dst=src.mac),
        [Output(net.port_no_between(transits[0].name, "ingress"))],
        priority=10,
    )
    ingress.route(src.mac, net.port_no_between("ingress", "src"))

    combiner = provision_virtual_combiner(
        net,
        ingress,
        egress,
        dst_mac=dst.mac,
        k=k,
        compare=compare or CompareConfig(k=k, proc_time=5e-6, buffer_timeout=2e-3),
    )
    return VirtualizedScenario(net, src, dst, transits, combiner)


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
    caller routes the egress on to the final destination
    (:meth:`~repro.core.virtual.VirtualEdge.route`).  The handle's
    trusted elements are the two edges, branch i is tunnel i's transit
    switches, and it has no compare host.
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
