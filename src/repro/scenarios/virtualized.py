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

from dataclasses import dataclass
from typing import List, Optional

from repro.core.combiner import CombinerChain
from repro.core.compare import CompareConfig
from repro.core.virtual import (
    VirtualEgress,
    VirtualIngress,
    provision_virtual_combiner,
)
from repro.net.host import Host
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
    egress.install(
        Match(dl_dst=dst.mac),
        [Output(net.port_no_between("egress", "dst"))],
        priority=10,
    )
    # Reverse direction (dst -> src) is left unprotected: it rides the
    # first transit, as ordinary traffic would.
    egress.install(
        Match(dl_dst=src.mac),
        [Output(net.port_no_between("egress", transits[0].name))],
        priority=10,
    )
    transits[0].install(
        Match(dl_dst=src.mac),
        [Output(net.port_no_between(transits[0].name, "ingress"))],
        priority=10,
    )
    ingress.install(
        Match(dl_dst=src.mac),
        [Output(net.port_no_between("ingress", "src"))],
        priority=10,
    )

    combiner = provision_virtual_combiner(
        net,
        ingress,
        egress,
        dst_mac=dst.mac,
        k=k,
        compare=compare or CompareConfig(k=k, proc_time=5e-6, buffer_timeout=2e-3),
    )
    return VirtualizedScenario(net, src, dst, transits, combiner)
