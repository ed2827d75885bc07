"""OpenFlow 1.0 actions.

Actions are small read-only values: a controller replica that sent one
cannot rewrite its operand afterwards (the control-plane voter releases
the objects a replica built).  Header-modifying actions mutate the
packet *copy* being processed by the datapath (the switch copies a frame
before the first action that writes it, matching OF semantics where each
action list operates on its own buffer).

An empty action list means *drop*, as in OpenFlow 1.0.
"""

from __future__ import annotations

from typing import Union

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet, Tcp, Udp, Vlan

# Special virtual port numbers (mirroring OFPP_* constants).
PORT_FLOOD = 0xFFFB
PORT_CONTROLLER = 0xFFFD
PORT_IN_PORT = 0xFFF8

_set = object.__setattr__


class _ReadOnly:
    """Slotted value whose fields are set once, by its ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        # pickle and copy rebuild through __init__ (its one argument per slot)
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Output(_ReadOnly):
    """Forward out of a physical port or a virtual port (flood/controller)."""

    __slots__ = ("port",)

    def __init__(self, port: int) -> None:
        _set(self, "port", port)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Output) and self.port == other.port

    def __hash__(self) -> int:
        return hash(("output", self.port))

    def __repr__(self) -> str:
        special = {
            PORT_FLOOD: "FLOOD",
            PORT_CONTROLLER: "CONTROLLER",
            PORT_IN_PORT: "IN_PORT",
        }
        return f"Output({special.get(self.port, self.port)})"


class SetDlSrc(_ReadOnly):
    __slots__ = ("mac",)

    def __init__(self, mac: MacAddress) -> None:
        _set(self, "mac", MacAddress(mac))

    def apply(self, packet: Packet) -> None:
        packet.eth.src = self.mac

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetDlSrc) and self.mac == other.mac

    def __hash__(self) -> int:
        return hash(("set_dl_src", self.mac))

    def __repr__(self) -> str:
        return f"SetDlSrc({self.mac})"


class SetDlDst(_ReadOnly):
    __slots__ = ("mac",)

    def __init__(self, mac: MacAddress) -> None:
        _set(self, "mac", MacAddress(mac))

    def apply(self, packet: Packet) -> None:
        packet.eth.dst = self.mac

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetDlDst) and self.mac == other.mac

    def __hash__(self) -> int:
        return hash(("set_dl_dst", self.mac))

    def __repr__(self) -> str:
        return f"SetDlDst({self.mac})"


class SetVlanVid(_ReadOnly):
    """Set (or add) the 802.1Q VID."""

    __slots__ = ("vid",)

    def __init__(self, vid: int) -> None:
        _set(self, "vid", vid)

    def apply(self, packet: Packet) -> None:
        if packet.vlan is None:
            packet.vlan = Vlan(self.vid)
        else:
            packet.vlan.vid = self.vid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetVlanVid) and self.vid == other.vid

    def __hash__(self) -> int:
        return hash(("set_vlan_vid", self.vid))

    def __repr__(self) -> str:
        return f"SetVlanVid({self.vid})"


class StripVlan(_ReadOnly):
    __slots__ = ()

    def apply(self, packet: Packet) -> None:
        packet.vlan = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StripVlan)

    def __hash__(self) -> int:
        return hash("strip_vlan")

    def __repr__(self) -> str:
        return "StripVlan()"


class SetNwSrc(_ReadOnly):
    __slots__ = ("ip",)

    def __init__(self, ip: IpAddress) -> None:
        _set(self, "ip", IpAddress(ip))

    def apply(self, packet: Packet) -> None:
        if packet.ip is not None:
            packet.ip.src = self.ip

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetNwSrc) and self.ip == other.ip

    def __hash__(self) -> int:
        return hash(("set_nw_src", self.ip))

    def __repr__(self) -> str:
        return f"SetNwSrc({self.ip})"


class SetNwDst(_ReadOnly):
    __slots__ = ("ip",)

    def __init__(self, ip: IpAddress) -> None:
        _set(self, "ip", IpAddress(ip))

    def apply(self, packet: Packet) -> None:
        if packet.ip is not None:
            packet.ip.dst = self.ip

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetNwDst) and self.ip == other.ip

    def __hash__(self) -> int:
        return hash(("set_nw_dst", self.ip))

    def __repr__(self) -> str:
        return f"SetNwDst({self.ip})"


class SetTpSrc(_ReadOnly):
    __slots__ = ("port",)

    def __init__(self, port: int) -> None:
        _set(self, "port", port)

    def apply(self, packet: Packet) -> None:
        if isinstance(packet.l4, (Udp, Tcp)):
            packet.l4.sport = self.port

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetTpSrc) and self.port == other.port

    def __hash__(self) -> int:
        return hash(("set_tp_src", self.port))

    def __repr__(self) -> str:
        return f"SetTpSrc({self.port})"


class SetTpDst(_ReadOnly):
    __slots__ = ("port",)

    def __init__(self, port: int) -> None:
        _set(self, "port", port)

    def apply(self, packet: Packet) -> None:
        if isinstance(packet.l4, (Udp, Tcp)):
            packet.l4.dport = self.port

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetTpDst) and self.port == other.port

    def __hash__(self) -> int:
        return hash(("set_tp_dst", self.port))

    def __repr__(self) -> str:
        return f"SetTpDst({self.port})"


ModifyAction = Union[
    SetDlSrc, SetDlDst, SetVlanVid, StripVlan, SetNwSrc, SetNwDst, SetTpSrc, SetTpDst
]
Action = Union[Output, ModifyAction]


def flood() -> Output:
    """Convenience: an ``Output`` to the FLOOD virtual port."""
    return Output(PORT_FLOOD)


def to_controller() -> Output:
    """Convenience: an ``Output`` to the CONTROLLER virtual port."""
    return Output(PORT_CONTROLLER)
