"""Denial-of-service attacks (threat 4): flood or blackhole.

"An adversarial router may also generate a very large number of packets
in order to overload the network ... A DoS attack can also be performed
by dropping packets."  A flood of fabricated packets out of one port is
:class:`~repro.adversary.modify.PacketInjectionBehavior` on a short
period.
"""

from __future__ import annotations

from typing import Optional

from repro.adversary.behaviors import AdversarialBehavior, Selector, match_all
from repro.net.packet import Packet
from repro.openflow.switch import OpenFlowSwitch


class ReplayFloodBehavior(AdversarialBehavior):
    """Amplify: emit ``amplification`` extra copies of each forwarded
    packet on its normal route.

    Against the compare this shows up as the *same packet on one ingress
    port multiple times* (Section IV, case 2) and triggers the advised
    port block.
    """

    def __init__(
        self,
        amplification: int = 10,
        selector: Optional[Selector] = None,
        name: str = "",
    ) -> None:
        super().__init__(name or "replay-flood")
        if amplification < 1:
            raise ValueError("amplification must be >= 1")
        self.amplification = amplification
        self.selector = selector or match_all()
        self.replayed = 0

    def handle(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        self.packets_seen += 1
        forwarded = self.forward_normally(switch, packet, in_port_no)
        if forwarded and self.selector(packet):
            for _ in range(self.amplification):
                self.forward_normally(switch, packet, in_port_no)
                self.replayed += 1
            self.trace_tamper(switch, "replay", packet)
        return True


class BlackholeBehavior(AdversarialBehavior):
    """Drop everything (or a selected subset) — DoS by deletion.

    Distinct from :class:`~repro.adversary.modify.DropBehavior` in intent
    and default: a blackhole eats *all* traffic, modelling a dead or
    fully hostile device; against NetCo this surfaces as the
    router-unavailable alarm while traffic keeps flowing 2-of-3.
    """

    def __init__(self, selector: Optional[Selector] = None, name: str = "") -> None:
        super().__init__(name or "blackhole")
        self.selector = selector or match_all()
        self.swallowed = 0

    def handle(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        self.packets_seen += 1
        if self.selector(packet):
            self.swallowed += 1
            return True
        return self.forward_normally(switch, packet, in_port_no)
