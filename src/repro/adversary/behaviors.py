"""The adversarial-behaviour base class and selectors (Section II threat model).

A compromised router "can behave arbitrarily, e.g., completely ignore the
installed OpenFlow match-action rules".  We model this by attaching an
:class:`AdversarialBehavior` to an :class:`~repro.openflow.switch.
OpenFlowSwitch`; the behaviour runs *instead of* the normal match-action
pipeline.  This module holds only the base class, the selector factories
and the trivial :class:`BenignBehavior` — the concrete attacks live in
the sibling modules: ``dos`` (blackhole and replay floods), ``mirror``
(eavesdropping), ``modify`` (drop, header rewrite, payload corruption,
packet fabrication), ``reroute`` (port swaps and detours), and
``strategies`` (scheduled, stateful adversaries with their own rng
streams).  ``catalogue`` names each of them once.

Behaviours that only want to tamper with *some* packets use a selector
predicate and fall back to :meth:`AdversarialBehavior.forward_normally`,
which replays the switch's real pipeline — a stealthy attacker behaves
correctly most of the time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.net.addresses import MacAddress
from repro.net.packet import IP_PROTO_UDP, Packet
from repro.openflow.switch import OpenFlowSwitch

Selector = Callable[[Packet], bool]


# ----------------------------------------------------------------------
# selector factories
# ----------------------------------------------------------------------
def match_all() -> Selector:
    return lambda packet: True


def match_dst_mac(mac: MacAddress) -> Selector:
    target = MacAddress(mac)
    return lambda packet: packet.eth.dst == target


def match_proto(proto: int) -> Selector:
    return lambda packet: packet.ip is not None and packet.ip.proto == proto


def match_udp() -> Selector:
    return match_proto(IP_PROTO_UDP)


# ----------------------------------------------------------------------
# behaviour base
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """What arming hands a behaviour: the switch it compromises, its own
    rng stream, the compare whose hooks it may use, its branch and a
    sweep row's knobs."""

    switch: Any
    rng: Any
    compare: Any = None
    branch: Optional[int] = None
    rate: float = 1.0
    pace: int = 1
    window: float = 0.0


class AdversarialBehavior:
    """Base class.  Subclasses implement :meth:`handle`.

    The chaos engine arms a behaviour with :meth:`activate` and ends its
    campaign with :meth:`deactivate`, which is where active time is
    accounted (and where compare-hook subscriptions live).
    """

    #: the catalogue fails to build it when no compare core is given
    requires_compare = False
    #: the catalogue fails to build it when no branch index is given
    requires_branch = False
    #: the :class:`Target` knobs it reads; a schedule that sets another
    #: one away from its default fails validation
    knobs: Tuple[str, ...] = ()

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self.packets_seen = 0
        self.packets_tampered = 0
        #: the combiner branch it sits on, when the arming knows it
        self.branch: Optional[int] = None
        #: sim time of the current activation, None while dormant
        self.activated_at: Optional[float] = None
        #: accumulated active sim time over completed activations
        self.active_seconds = 0.0

    def attach(self, switch: OpenFlowSwitch) -> None:
        """Install this behaviour on ``switch``."""
        switch.behavior = self

    def handle(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        """Decide the packet's fate.

        Returns True if the behaviour fully handled the packet (including
        the choice to drop it); False to fall through to the switch's
        normal pipeline.
        """
        raise NotImplementedError

    def activate(self, now: float) -> None:
        if self.activated_at is None:
            self.activated_at = now

    def deactivate(self, now: float) -> None:
        if self.activated_at is None:
            return
        self.active_seconds += now - self.activated_at
        self.activated_at = None

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def forward_normally(
        switch: OpenFlowSwitch, packet: Packet, in_port_no: int
    ) -> bool:
        """Run the switch's genuine match-action pipeline on the packet.

        Returns True if a rule forwarded it, False on table miss (the
        packet is dropped: an adversarial router has no controller to ask).
        """
        entry = switch.table.lookup(packet, in_port_no, switch.sim.now)
        if entry is None or not entry.actions:
            return False
        switch.apply_actions(packet, entry.actions, in_port_no)
        return True

    @staticmethod
    def emit(switch: OpenFlowSwitch, packet: Packet, out_port_no: int) -> None:
        """Send a packet out of a specific port, no questions asked."""
        port = switch.ports.get(out_port_no)
        if port is not None and port.is_wired:
            port.send(packet.copy())

    def trace_tamper(self, switch: OpenFlowSwitch, action: str, packet: Packet) -> None:
        self.packets_tampered += 1
        switch.trace("adversary.tamper", behavior=self.name, action=action, packet=packet)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seen={self.packets_seen}, tampered={self.packets_tampered})"


class BenignBehavior(AdversarialBehavior):
    """A 'compromised' router that currently behaves perfectly.

    Useful as a control in experiments and to model a dormant implant.
    """

    def handle(self, switch: OpenFlowSwitch, packet: Packet, in_port_no: int) -> bool:
        self.packets_seen += 1
        return self.forward_normally(switch, packet, in_port_no)
