"""Packet-modification attacks (threat 3): delete, rewrite or fabricate.

"An adversarial router can also delete packets, generate new packets, or
modify the header or payload of packets (e.g., changing the VLAN field
to break isolation domains)."
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.adversary.behaviors import AdversarialBehavior, Selector, match_all
from repro.core.clock import PeriodicTask
from repro.net.addresses import MacAddress
from repro.net.packet import Packet, Vlan
from repro.openflow.switch import OpenFlowSwitch


class DropBehavior(AdversarialBehavior):
    """Silently delete selected packets (possibly probabilistically)."""

    def __init__(
        self,
        selector: Optional[Selector] = None,
        drop_probability: float = 1.0,
        rng=None,
        name: str = "",
    ) -> None:
        super().__init__(name or "drop")
        self.selector = selector or match_all()
        self.drop_probability = drop_probability
        self._rng = rng
        self.dropped = 0

    def handle(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        self.packets_seen += 1
        if self.selector(packet):
            roll = 0.0 if self._rng is None else self._rng.random()
            if roll < self.drop_probability:
                self.dropped += 1
                self.trace_tamper(switch, "drop", packet)
                return True
        return self.forward_normally(switch, packet, in_port_no)


class HeaderRewriteBehavior(AdversarialBehavior):
    """Apply an arbitrary header mutation, then forward along the route
    the *mutated* packet would take (the rewrite is the routing attack)."""

    def __init__(
        self,
        mutate: Callable[[Packet], None],
        selector: Optional[Selector] = None,
        name: str = "",
    ) -> None:
        super().__init__(name or "header-rewrite")
        self.mutate = mutate
        self.selector = selector or match_all()

    def handle(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        self.packets_seen += 1
        if not self.selector(packet):
            return self.forward_normally(switch, packet, in_port_no)
        mutated = packet.copy()
        self.mutate(mutated)
        self.trace_tamper(switch, "rewrite", mutated)
        self.forward_normally(switch, mutated, in_port_no)
        return True


def vlan_rewrite(vid: int) -> Callable[[Packet], None]:
    """Mutator: move the packet into VLAN ``vid`` (isolation break)."""

    def mutate(packet: Packet) -> None:
        if packet.vlan is None:
            packet.vlan = Vlan(vid)
        else:
            packet.vlan.vid = vid

    return mutate


def dst_mac_rewrite(mac: MacAddress) -> Callable[[Packet], None]:
    """Mutator: retarget the packet at a different station."""
    target = MacAddress(mac)

    def mutate(packet: Packet) -> None:
        packet.eth.dst = target

    return mutate


def corrupt_payload(packet: Packet, offset: int = 0) -> Packet:
    """The canonical wrong wire image: XOR 0xFF into one payload byte.

    Deterministic in the input packet, so two colluding branches that
    apply it independently emit *identical* corrupt copies without any
    coordination channel — the worst case for a bit-exact voter.
    """
    mutated = packet.copy()
    data = bytearray(mutated.payload)
    data[offset % len(data)] ^= 0xFF
    mutated.payload = bytes(data)
    return mutated


class PayloadCorruptionBehavior(AdversarialBehavior):
    """Flip bytes in the payload of selected packets and forward them.

    Against a bit-exact compare the corrupted copy loses the vote; against
    a header-only compare it slips through — the policy ablation measures
    exactly this.
    """

    def __init__(
        self,
        selector: Optional[Selector] = None,
        flip_offset: int = 0,
        name: str = "",
    ) -> None:
        super().__init__(name or "payload-corrupt")
        self.selector = selector or match_all()
        self.flip_offset = flip_offset
        self.corrupted = 0

    def handle(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        self.packets_seen += 1
        if not self.selector(packet) or not packet.payload:
            return self.forward_normally(switch, packet, in_port_no)
        mutated = corrupt_payload(packet, self.flip_offset)
        self.corrupted += 1
        self.trace_tamper(switch, "corrupt", mutated)
        self.forward_normally(switch, mutated, in_port_no)
        return True


class PacketInjectionBehavior(AdversarialBehavior):
    """Fabricate unsolicited packets on a timer ("crafting packets
    unsolicited" in Section IV, case 1).

    Forwards real traffic normally; separately injects ``factory()``
    packets out ``inject_port`` every ``period`` seconds once started.
    """

    def __init__(
        self,
        factory: Callable[[int], Packet],
        inject_port: int,
        period: float,
        name: str = "",
    ) -> None:
        super().__init__(name or "inject")
        self.factory = factory
        self.inject_port = inject_port
        self.period = period
        self.injected = 0
        self._task: Optional[PeriodicTask] = None
        self._switch: Optional[OpenFlowSwitch] = None

    def attach(self, switch: OpenFlowSwitch) -> None:
        super().attach(switch)
        self._switch = switch

    def start(self, initial_delay: float = 0.0) -> None:
        if self._switch is None:
            raise RuntimeError("attach() the behaviour to a switch before start()")
        self.stop()  # a restart replaces the running injector
        self._task = PeriodicTask(self._switch.sim, self.period, self._inject)
        self._task.start(initial_delay)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()

    def _inject(self) -> None:
        assert self._switch is not None
        packet = self.factory(self.injected)
        self.injected += 1
        self.trace_tamper(self._switch, "inject", packet)
        self.emit(self._switch, packet, self.inject_port)

    def handle(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        self.packets_seen += 1
        return self.forward_normally(switch, packet, in_port_no)
