"""OpenFlow control-channel messages (the subset the reproduction needs).

These are plain value objects exchanged between :class:`~repro.openflow.
switch.OpenFlowSwitch` and :class:`~repro.openflow.controller.Controller`
over a latency-modelled channel — the simulator analogue of the TCP
connection between an OpenFlow switch and its controller.

The three a control decision is made of — :class:`PacketIn`,
:class:`PacketOut` and :class:`FlowMod` — are built once per replica per
decision, so they write their instance ``__dict__`` in their own
``__init__`` instead of paying the generated one's ``object.__setattr__``
per field.  They stay frozen dataclasses (``==``, ``hash``, ``repr`` and
``dataclasses.replace`` are the generated ones), and they hold their
action list as a tuple: a replica cannot rewrite a message's actions
after the voter digested it, and a ``FlowMod`` is hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.openflow.actions import Action
    from repro.openflow.match import Match

# FlowMod commands
FLOWMOD_ADD = "add"
FLOWMOD_DELETE = "delete"
FLOWMOD_DELETE_STRICT = "delete_strict"

# PacketIn reasons
PACKETIN_NO_MATCH = "no_match"
PACKETIN_ACTION = "action"


@dataclass(frozen=True, init=False)
class PacketIn:
    """Switch -> controller: a packet needing a decision."""

    datapath_id: int
    packet: Packet
    in_port: int
    reason: str = PACKETIN_NO_MATCH
    buffer_id: Optional[int] = None

    def __init__(
        self,
        datapath_id: int,
        packet: Packet,
        in_port: int,
        reason: str = PACKETIN_NO_MATCH,
        buffer_id: Optional[int] = None,
    ) -> None:
        state = self.__dict__
        state["datapath_id"] = datapath_id
        state["packet"] = packet
        state["in_port"] = in_port
        state["reason"] = reason
        state["buffer_id"] = buffer_id


@dataclass(frozen=True, init=False)
class PacketOut:
    """Controller -> switch: emit a packet with the given action list."""

    packet: Optional[Packet]
    actions: Tuple[Action, ...]
    in_port: int = 0
    buffer_id: Optional[int] = None

    def __init__(
        self,
        packet: Optional[Packet],
        actions: Sequence[Action],
        in_port: int = 0,
        buffer_id: Optional[int] = None,
    ) -> None:
        state = self.__dict__
        state["packet"] = packet
        state["actions"] = tuple(actions)
        state["in_port"] = in_port
        state["buffer_id"] = buffer_id


@dataclass(frozen=True, init=False)
class FlowMod:
    """Controller -> switch: install or remove flow state."""

    command: str
    match: Match
    actions: Tuple[Action, ...] = ()
    priority: int = 0
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0

    def __init__(
        self,
        command: str,
        match: Match,
        actions: Sequence[Action] = (),
        priority: int = 0,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
    ) -> None:
        state = self.__dict__
        state["command"] = command
        state["match"] = match
        state["actions"] = tuple(actions)
        state["priority"] = priority
        state["idle_timeout"] = idle_timeout
        state["hard_timeout"] = hard_timeout
        state["cookie"] = cookie


@dataclass(frozen=True)
class FlowRemoved:
    """Switch -> controller: a flow entry expired or was deleted."""

    datapath_id: int
    match: Match
    priority: int
    reason: str
    packet_count: int
    byte_count: int
    cookie: int = 0


@dataclass(frozen=True)
class PortStatsRequest:
    datapath_id: int


@dataclass(frozen=True)
class PortStats:
    port_no: int
    rx_packets: int
    tx_packets: int
    rx_bytes: int
    tx_bytes: int


@dataclass(frozen=True)
class PortStatsReply:
    datapath_id: int
    stats: List[PortStats] = field(default_factory=list)


@dataclass(frozen=True)
class FlowStatsRequest:
    datapath_id: int


@dataclass(frozen=True)
class FlowStatsEntry:
    match: Match
    priority: int
    packet_count: int
    byte_count: int
    cookie: int


@dataclass(frozen=True)
class FlowStatsReply:
    datapath_id: int
    stats: List[FlowStatsEntry] = field(default_factory=list)
