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
from typing import TYPE_CHECKING, Optional

from repro.core.alarms import ALARM_MINORITY_DIVERGENCE
from repro.core.compare import CompareCore
from repro.core.endpoint import CombinerEndpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator


def deterministic_sample(key: bytes, rate: float) -> bool:
    """Stateless, coordination-free sampling decision.

    All trusted elements make the same decision for the same packet by
    hashing its vote key.  The hash is public and unkeyed, so a malicious
    router can evaluate it too — on the original *and* on its tampered
    copy — and lie only when neither is sampled: this sampler detects
    faults and naive tampering, not an adversary that evades it
    (ROADMAP 1(b); the keyed, epoch-rotated sampler replaces it).
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
        **endpoint: object,
    ) -> None:
        """``endpoint`` are :class:`CombinerEndpoint`'s own options."""
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate out of range: {sample_rate}")
        super().__init__(sim, name, **endpoint)
        self.sample_rate = sample_rate
        self.primary_branch = primary_branch
        self.sampled = 0
        self.fast_forwarded = 0
        #: the in-band compare's core, read only for its policy's vote
        #: key (the sampling decision); the builder sets it
        self.policy_core: Optional[CompareCore] = None

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
        core = self.policy_core
        if core is None:
            return
        key = core.config.policy.key(packet)
        if deterministic_sample(key, self.sample_rate):
            if branch == self.primary_branch:
                self.sampled += 1
            self._submit_to_compare(packet, branch, claim)

    def _serve_batch_packet(self, batch, i: int, in_port_no: int, now: float) -> None:
        # The forward-or-sample decision is per packet: a branch arrival
        # leaves its train for the per-packet path above.
        if in_port_no in self._branch_by_port:
            self.sim.realm.note_fallback("vote-boundary")
            self._process(batch.packet_at(i), in_port_no)
        else:
            super()._serve_batch_packet(batch, i, in_port_no, now)

    def handle_release(self, packet: Packet) -> None:
        """The sampling compare is out-of-band: a successful vote just
        confirms agreement; the primary already forwarded the packet."""
        self.estats.released_out += 1


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
