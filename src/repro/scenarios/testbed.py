"""Every registered combiner realisation behind one handle.

:func:`build_testbed` builds any scenario of the registry
(:mod:`repro.scenarios.registry`) and returns a :class:`Testbed`; tasks
read the handle, never the combiner under it.  Section V-A defines the
six Figure 3 variants; all are derived from the same chain
``h1 — s1 — {r_i} — s2 — h2`` (plus ``h3``, the compare host):

* **Linespeed** — h1, s1, r3, s2, h2 only: the insecure benchmark.
* **Central3 / Central5** — the full combiner with k=3 / k=5 and the
  C-style compare attached in-band on a dedicated host.
* **POX3** — k=3, compare as a POX controller application.
* **Dup3 / Dup5** — hubs only; packets are split but never combined.

The other realisations are the same mechanism: **transport3** (Section
IX, each branch a chain of three switches) and **sampled2** (Section IX,
branch 0 forwards and a fifth of the packets is compared) are
parameterisations of that chain (``topology`` ``chain``).  Two have a
builder of their own, whose own link and switch constants stay —
:class:`TestbedParams` contributes the seed and the compare
configuration there: **virtual2 / virtual3** (Section VII, ``ladder``)
are the Figure 9 ladder of :mod:`repro.scenarios.virtualized`, and
**fattree_shielded3** (Section VI, ``pod``) is the fat-tree pod slice of
:mod:`repro.scenarios.datacenter` with its aggregation switch shielded
(``h1`` is ``vm1``, ``h2`` is ``fw1``).

Calibration: the simulator's free parameters (per-packet costs, link
characteristics) are set so that the *shape* of the paper's Table I /
Figures 4-8 is reproduced; see DESIGN.md §5.  The defaults below model a
software-switch testbed: a ~12 µs per-packet router datapath (≈ 480
Mbit/s of MTU frames through one router), an 8 µs trusted-endpoint cost,
a 15 µs compare (memcmp + socket handling), a 42 µs per-datagram UDP
sender cost (iperf's syscall path), and a receive path costing
~2 µs + 9.5 ns/byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.core.combiner import (
    CombinerChain,
    CombinerChainParams,
    build_combiner_chain,
)
from repro.core.compare import CompareConfig
from repro.net.host import Host
from repro.net.topology import Network
from repro.scenarios.registry import (
    ScenarioSpec,
    get_scenario,
    scenario_names,
)
from repro.traffic.iperf import PathEndpoints

#: all registered variant names — derived from the scenario registry
#: (:mod:`repro.scenarios.registry`), never maintained by hand here.
VARIANTS = scenario_names()


@dataclass
class TestbedParams:
    """Calibrated parameters of the Figure 3 testbed (see module doc)."""

    __test__ = False  # not a pytest class, despite the name

    link_rate_bps: float = 1e9
    link_delay: float = 3e-6
    queue_capacity: int = 60
    switch_service_queue: int = 150
    host_stack_delay: float = 30e-6
    host_stack_jitter: float = 3e-6
    host_recv_cost_base: float = 2e-6
    host_recv_cost_per_byte: float = 8e-9
    router_proc_time: float = 5e-6
    router_proc_per_byte: float = 2.5e-9
    endpoint_proc_time: float = 1e-6
    endpoint_proc_per_byte: float = 2e-9
    shared_cpu: bool = True
    compare_proc_time: float = 4e-6
    compare_proc_per_byte: float = 13.5e-9
    compare_link_rate_bps: float = 1e9
    compare_link_delay: float = 15e-6
    compare_buffer_timeout: float = 5e-3
    compare_cache_capacity: int = 4096
    compare_cleanup_duration: float = 2e-4
    compare_cleanup_scan_cost: float = 1e-7
    pox_channel_latency: float = 100e-6
    pox_proc_time: float = 120e-6
    #: per-datagram sender CPU cost for UDP tests (iperf -u syscall path)
    udp_send_cost: float = 42e-6
    #: packet-train size for the batching tier (1 = event per packet)
    batch_train: int = 1
    seed: int = 0

    def compare_config(self, k: int) -> CompareConfig:
        return CompareConfig(
            k=k,
            proc_time=self.compare_proc_time,
            proc_per_byte=self.compare_proc_per_byte,
            buffer_timeout=self.compare_buffer_timeout,
            cache_capacity=self.compare_cache_capacity,
            cleanup_duration=self.compare_cleanup_duration,
            cleanup_scan_cost=self.compare_cleanup_scan_cost,
        )


class Testbed:
    """A built scenario: network, hosts, and the combiner between them
    (``chain``, a :class:`CombinerChain` in every realisation: for the
    Section VII ladder its trusted elements are the two edges, for the
    Section VI shield one endpoint is both)."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        variant: str,
        network: Network,
        h1: Host,
        h2: Host,
        chain: CombinerChain,
        params: TestbedParams,
    ) -> None:
        self.variant = variant
        self.network = network
        self.h1 = h1
        self.h2 = h2
        self.chain = chain
        self.params = params

    def path(self, reverse: bool = False) -> PathEndpoints:
        """Measurement endpoints (h1 as client unless reversed)."""
        if reverse:
            return PathEndpoints(self.network, self.h2, self.h1)
        return PathEndpoints(self.network, self.h1, self.h2)

    @property
    def compare_core(self):
        return self.chain.compare_core

    @property
    def alarms(self):
        return self.chain.alarms

    @property
    def routers(self):
        """Each branch's first switch."""
        return [branch[0] for branch in self.chain.branches]

    @property
    def branches(self):
        """``branches[i][hop]``: every untrusted switch, by branch."""
        return self.chain.branches

    @property
    def transport(self):
        """The ingress trusted element's transport (each node has its own)."""
        return self.chain.endpoint_a.transport

    def aliases(self) -> Dict[str, str]:
        """Fault-schedule target aliases: ``r{i}`` is the first switch of
        branch i, ``link_a{i}`` / ``link_b{i}`` the links joining the
        branch to the ingress / egress trusted element (the first one,
        where there are several), and ``link_a{i}.<neighbour>`` each of
        a shielded router's claim-links."""
        chain, port_between = self.chain, self.network.port_between
        aliases: Dict[str, str] = {}
        for i, branch in enumerate(chain.branches):
            aliases[f"r{i}"] = branch[0].name
            aliases[f"link_a{i}"] = port_between(
                chain.endpoint_a.name, branch[0].name).link.name
            aliases[f"link_b{i}"] = port_between(
                branch[-1].name, chain.endpoint_b.name).link.name
        for i, neighbour, link in chain.claim_links():
            aliases[f"link_a{i}.{neighbour}"] = link.name
        return aliases


def build_testbed(
    variant: str,
    params: Optional[TestbedParams] = None,
    seed: Optional[int] = None,
    install_routes: bool = True,
) -> Testbed:
    """Build one registered scenario from scratch, with the builder its
    spec's ``topology`` names.

    ``install_routes=False`` leaves the untrusted routers' flow tables
    empty — for scenarios where a control plane installs routes
    reactively (:mod:`repro.scenarios.ctrlplane`) instead of the static
    provisioning below; only a chain has routes to leave out.
    """
    spec: ScenarioSpec = get_scenario(variant)
    params = params or TestbedParams()
    if seed is not None:
        params = replace(params, seed=seed)
    if spec.topology != "chain" and not install_routes:
        raise ValueError(
            f"variant {variant!r} provisions its routes statically; "
            "it cannot run under reactive control"
        )
    k = spec.k
    # the ladder and pod builders are imported in their own branch, so a
    # chain run does not load them (tests/test_import_order.py pins it)
    if spec.topology == "ladder":
        from repro.scenarios.virtualized import build_virtualized_scenario

        ladder = build_virtualized_scenario(
            k=k, seed=params.seed, compare=params.compare_config(k)
        )
        return Testbed(
            variant, ladder.network, ladder.src, ladder.dst, ladder.combiner, params
        )
    if spec.topology == "pod":
        from repro.scenarios.datacenter import build_pod_slice

        net, shield = build_pod_slice(params.seed, params.compare_config(k))
        return Testbed(variant, net, net.host("vm1"), net.host("fw1"), shield, params)

    net = Network(seed=params.seed, batch_train=params.batch_train)
    chain_params = CombinerChainParams(
        k=k,
        mode=spec.mode,
        link_rate_bps=params.link_rate_bps,
        link_delay=params.link_delay,
        queue_capacity=params.queue_capacity,
        router_proc_time=params.router_proc_time,
        router_proc_per_byte=params.router_proc_per_byte,
        endpoint_proc_time=params.endpoint_proc_time,
        endpoint_proc_per_byte=params.endpoint_proc_per_byte,
        shared_cpu=params.shared_cpu,
        switch_service_queue=params.switch_service_queue,
        compare_link_rate_bps=params.compare_link_rate_bps,
        compare_link_delay=params.compare_link_delay,
        compare=params.compare_config(k),
        transport=spec.transport,
        controller_latency=params.pox_channel_latency,
        controller_proc_time=params.pox_proc_time,
        depth=spec.depth,
        sample_rate=spec.sample_rate,
    )
    chain = build_combiner_chain(net, "nc", chain_params)

    host = dict(
        stack_delay=params.host_stack_delay,
        stack_jitter=params.host_stack_jitter,
        recv_cost_base=params.host_recv_cost_base,
        recv_cost_per_byte=params.host_recv_cost_per_byte,
    )
    link = dict(
        rate_bps=params.link_rate_bps,
        delay=params.link_delay,
        queue_capacity=params.queue_capacity,
    )
    h1, h2 = net.add_host("h1", **host), net.add_host("h2", **host)
    net.connect(h1, chain.endpoint_a, **link)
    net.connect(h2, chain.endpoint_b, **link)
    if install_routes:
        # MAC-destination routing on the untrusted routers (the paper's
        # only matched header field).
        chain.install_mac_route(h2.mac, toward="b")
        chain.install_mac_route(h1.mac, toward="a")
    return Testbed(variant, net, h1, h2, chain, params)
