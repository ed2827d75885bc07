"""Sampling-based detection — the Section IX extension.

"An efficient alternative could be to reduce load on the compare using
*sampling*: a simple logic in the data plane forwards a random subset of
packets to a more thorough out-of-band compare logic."

:class:`SamplingEndpoint` implements that: a *primary* branch's copies
are forwarded immediately (no per-packet compare on the critical path),
and a deterministic sample of packets — selected by hashing the vote key,
so every endpoint samples the *same* packets without coordination — is
submitted to an out-of-band compare.  A sampled packet whose copies
diverge (or never achieve quorum) raises a divergence alarm.

This trades prevention for throughput: misbehaviour on the primary
branch reaches the destination, but is *detected* within ``O(1/rate)``
packets, at ``rate`` times the compare load of the full combiner.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.core.alarms import ALARM_MINORITY_DIVERGENCE, AlarmSink
from repro.core.compare import CompareCore
from repro.core.endpoint import MODE_COMBINE, CombinerEndpoint
from repro.net.packet import Packet
from repro.sim import Simulator, TraceBus


def deterministic_sample(key: bytes, rate: float) -> bool:
    """Stateless, coordination-free sampling decision.

    All trusted elements make the same decision for the same packet by
    hashing its vote key; a malicious router cannot predict-and-evade
    without knowing the packet bytes it is about to tamper with — and
    tampering changes the key it would need to evade.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    bucket = zlib.crc32(key) & 0xFFFFFFFF
    return bucket < rate * (1 << 32)


class SamplingEndpoint(CombinerEndpoint):
    """A combiner endpoint in sampling-detection mode.

    * copies from the ``primary`` branch are forwarded immediately;
    * packets selected by :func:`deterministic_sample` are (also)
      submitted to the compare from *every* branch;
    * non-sampled copies from non-primary branches are discarded.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        sample_rate: float = 0.1,
        primary_branch: int = 0,
        trace_bus: Optional[TraceBus] = None,
        proc_time: float = 0.0,
        proc_per_byte: float = 0.0,
        cpu=None,
        alarm_sink: Optional[AlarmSink] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate out of range: {sample_rate}")
        super().__init__(
            sim,
            name,
            trace_bus=trace_bus,
            proc_time=proc_time,
            proc_per_byte=proc_per_byte,
            cpu=cpu,
            mode=MODE_COMBINE,
            alarm_sink=alarm_sink,
        )
        self.sample_rate = sample_rate
        self.primary_branch = primary_branch
        self.sampled = 0
        self.fast_forwarded = 0

    def _from_branch(
        self, packet: Packet, branch: int, claim: Optional[int] = None
    ) -> None:
        self.estats.collected += 1
        if branch == self.primary_branch:
            # critical path: forward without waiting for any vote
            self.fast_forwarded += 1
            if claim is not None:
                port = self.ports.get(claim)
                if port is not None and port.is_wired:
                    port.send(packet.copy())
                    self.stats.forwarded += 1
                else:
                    self._forward_external(packet)
            else:
                self._forward_external(packet)
        core = self._sampling_core()
        if core is None:
            return
        key = core.config.policy.key(packet)
        if deterministic_sample(key, self.sample_rate):
            if branch == self.primary_branch:
                self.sampled += 1
            self._submit_to_compare(packet, branch, claim)

    def handle_release(self, packet: Packet) -> None:
        """The sampling compare is out-of-band: a successful vote just
        confirms agreement; the primary already forwarded the packet."""
        self.estats.released_out += 1

    def _sampling_core(self) -> Optional[CompareCore]:
        if self._compare_core is not None:
            return self._compare_core
        if self._compare_port_no is not None:
            # in-band compare host: sampling decision uses the default
            # policy key (bit-exact); the host's core applies its own
            return self._default_core
        return None

    # A core reference used purely for the sampling policy when the
    # compare is attached in-band; set by the builder.
    _default_core: Optional[CompareCore] = None

    def set_sampling_policy_core(self, core: CompareCore) -> None:
        self._default_core = core


class DivergenceWatcher:
    """Turns a sampling compare's expiries into divergence alarms.

    A sampled packet that fails its vote means some branch disagreed
    with the others — with a forwarding primary, that is the detection
    signal (the paper's k=2 'detect' column, at sampled cost).  Requires
    the core to have a trace bus.
    """

    def __init__(self, core: CompareCore) -> None:
        self.core = core
        self.divergences = 0
        if core.trace_bus is not None:
            core.trace_bus.subscribe("compare.drop_unreleased", self._on_drop)

    def _on_drop(self, record) -> None:
        if record.source != self.core.name:
            return
        self.divergences += 1
        self.core.alarms.raise_alarm(
            record.time,
            ALARM_MINORITY_DIVERGENCE,
            self.core.name,
            votes=record.data.get("votes"),
        )


def build_sampling_chain(
    network,
    name: str,
    k: int = 2,
    sample_rate: float = 0.1,
    compare_config=None,
    link_rate_bps: float = 1e9,
    link_delay: float = 2e-6,
    router_proc_time: float = 5e-6,
    endpoint_proc_time: float = 1e-6,
):
    """A Figure 3-shaped chain in sampling-detection mode.

    Returns an object compatible with :class:`~repro.core.combiner.
    CombinerChain` (endpoints, routers, compare core, alarms) plus a
    :class:`DivergenceWatcher`.
    """
    from dataclasses import replace as dc_replace

    from repro.core.combiner import CombinerChain, attach_inline_compare
    from repro.core.compare import CompareConfig

    sim, trace = network.sim, network.trace
    alarms = AlarmSink(trace)
    endpoint_a = SamplingEndpoint(
        sim, f"{name}_sA", sample_rate=sample_rate, trace_bus=trace,
        proc_time=endpoint_proc_time, alarm_sink=alarms,
    )
    endpoint_b = SamplingEndpoint(
        sim, f"{name}_sB", sample_rate=sample_rate, trace_bus=trace,
        proc_time=endpoint_proc_time, alarm_sink=alarms,
    )
    network.add_node(endpoint_a)
    network.add_node(endpoint_b)
    endpoint_b.address_registry = endpoint_a.address_registry

    from repro.openflow.switch import OpenFlowSwitch

    routers = []
    for i in range(k):
        router = OpenFlowSwitch(
            sim, f"{name}_r{i}", trace_bus=trace, proc_time=router_proc_time
        )
        network.add_node(router)
        routers.append(router)
        link_a = network.connect(
            endpoint_a, router, rate_bps=link_rate_bps, delay=link_delay
        )
        network.connect(router, endpoint_b, rate_bps=link_rate_bps, delay=link_delay)
        endpoint_a.assign_branch(link_a.a.port_no, i)
        endpoint_b.assign_branch(
            network.port_no_between(endpoint_b.name, router.name), i
        )

    config = compare_config or CompareConfig(k=k, buffer_timeout=2e-3)
    # In detection mode, a diverging branch makes *every* sampled packet
    # expire as two single-source entries — that is the signal, not a
    # crafted-packet flood, so the auto-block mitigation must stay off
    # (it would end up blocking the honest primary).
    config = dc_replace(config, k=k, craft_threshold=1 << 30)
    core, compare_host = attach_inline_compare(
        network, name, config, (endpoint_a, endpoint_b), alarms,
        rate_bps=link_rate_bps, delay=link_delay,
    )
    for endpoint in (endpoint_a, endpoint_b):
        endpoint.set_sampling_policy_core(core)

    watcher = DivergenceWatcher(core)
    chain = CombinerChain(
        network=network,
        name=name,
        endpoint_a=endpoint_a,
        endpoint_b=endpoint_b,
        routers=routers,
        compare_host=compare_host,
        compare_core=core,
        alarms=alarms,
    )
    chain.watcher = watcher
    return chain
