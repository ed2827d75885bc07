"""Denial-of-service attacks (threat 4): flood or blackhole.

"An adversarial router may also generate a very large number of packets
in order to overload the network ... A DoS attack can also be performed
by dropping packets."
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.adversary.behaviors import AdversarialBehavior, Selector, match_all
from repro.net.packet import Packet
from repro.openflow.switch import OpenFlowSwitch
from repro.sim.engine import PeriodicTask


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


class GeneratorFloodBehavior(AdversarialBehavior):
    """Generate a high-rate stream of fabricated packets out of a port.

    ``factory(i)`` builds the i-th flood packet; rate is packets/second.
    Normal traffic continues to be forwarded (the flood rides alongside).
    """

    def __init__(
        self,
        factory: Callable[[int], Packet],
        out_port: int,
        rate_pps: float,
        name: str = "",
    ) -> None:
        super().__init__(name or "generator-flood")
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        self.factory = factory
        self.out_port = out_port
        self.rate_pps = rate_pps
        self.generated = 0
        self._task: Optional[PeriodicTask] = None
        self._switch: Optional[OpenFlowSwitch] = None

    def attach(self, switch: OpenFlowSwitch) -> None:
        super().attach(switch)
        self._switch = switch

    def start(self, initial_delay: float = 0.0) -> None:
        if self._switch is None:
            raise RuntimeError("attach() the behaviour to a switch before start()")
        self.stop()  # a restart replaces the running flood
        self._task = PeriodicTask(self._switch.sim, 1.0 / self.rate_pps, self._emit_one)
        self._task.start(initial_delay)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    def _emit_one(self) -> None:
        assert self._switch is not None
        packet = self.factory(self.generated)
        self.generated += 1
        self.emit(self._switch, packet, self.out_port)

    def handle(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        self.packets_seen += 1
        return self.forward_normally(switch, packet, in_port_no)


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
