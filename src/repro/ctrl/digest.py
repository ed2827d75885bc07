"""Canonical byte encodings for control-channel messages.

The control-plane voter (:class:`~repro.ctrl.compare.ControlCompare`)
needs the analogue of the data plane's bit-exact packet comparison: two
replicas "agree" on a decision exactly when their outbound messages
encode to the same bytes.  Python object identity or ``repr`` would not
do — the encoding must be a pure function of the *protocol-visible*
fields, stable across processes (farm workers vote-count records from
different interpreters), and injective (any single-field mutation must
change the bytes, or a lying replica could smuggle a divergent flow-mod
under an honest digest).

The encodings below are hand-rolled TLV-style byte strings rather than
real OpenFlow 1.0 wire format: the simulator's messages carry fields
(float timeouts, simulator packets) the wire format cannot, and the
voter only needs canonical equality, not interoperability.

``digest()`` returns the full canonical encoding (not a hash): vote keys
live briefly in a :class:`~repro.core.votes.VoteBook` and exactness
beats compactness — no collision argument needed.  Every copy a replica
emits is digested, so a message is encoded in one pass: its parts
(``Output`` written inline, a PacketOut's packet image as is) are joined
once.
"""

from __future__ import annotations

import struct

from repro.openflow.actions import (
    Output,
    SetDlDst,
    SetDlSrc,
    SetNwDst,
    SetNwSrc,
    SetTpDst,
    SetTpSrc,
    SetVlanVid,
    StripVlan,
)
from repro.openflow.match import Match
from repro.openflow.messages import (
    FLOWMOD_ADD,
    FLOWMOD_DELETE,
    FLOWMOD_DELETE_STRICT,
    FlowMod,
    PacketOut,
)

__all__ = [
    "DigestError",
    "encode_match",
    "encode_action",
    "encode_actions",
    "encode_flow_mod",
    "encode_packet_out",
    "digest",
]

_U32 = struct.Struct("!I")
_U16 = struct.Struct("!H")
#: an Output action: tag, port
_OUTPUT = struct.Struct("!cI")
#: an action list of one Output: count, tag, port
_LONE_OUTPUT = struct.Struct("!HcI")
#: the fixed FlowMod tail: priority, idle_timeout, hard_timeout, cookie
_FLOW_MOD_TAIL = struct.Struct("!qddq")
#: the PacketOut fields after its packet: buffer_id presence (and value),
#: in_port, action count
_PACKET_OUT_TAIL = struct.Struct("!BIH")
_PACKET_OUT_TAIL_BUFFERED = struct.Struct("!BqIH")

_ABSENT = b"\x00"
_PRESENT = b"\x01"


class DigestError(ValueError):
    """A control message contains something we cannot canonicalise."""


class _ActionEncoders(dict):
    """Exact action type -> encoder.  A type not in the table is a hard
    error — the trusted voter must never release bytes it cannot
    canonicalise."""

    def __missing__(self, kind: type):
        raise DigestError(f"cannot canonicalise action {kind.__name__}")


def encode_match(match: Match) -> bytes:
    """The OF 1.0 12-tuple, fixed field order, wildcards marked.

    Every field is presence-prefixed (``None`` != any encoded value);
    the twelve are spelled out rather than sent through per-width
    helpers, which cost a dozen frames per FlowMod.
    """
    in_port, dl_src, dl_dst = match.in_port, match.dl_src, match.dl_dst
    dl_vlan, dl_vlan_pcp, dl_type = match.dl_vlan, match.dl_vlan_pcp, match.dl_type
    nw_tos, nw_proto = match.nw_tos, match.nw_proto
    nw_src, nw_dst = match.nw_src, match.nw_dst
    tp_src, tp_dst = match.tp_src, match.tp_dst
    u16 = _U16.pack
    return b"".join(
        (
            b"M",
            _ABSENT if in_port is None else _PRESENT + _U32.pack(in_port & 0xFFFFFFFF),
            _ABSENT if dl_src is None else _PRESENT + dl_src.to_bytes(),
            _ABSENT if dl_dst is None else _PRESENT + dl_dst.to_bytes(),
            _ABSENT if dl_vlan is None else _PRESENT + u16(dl_vlan & 0xFFFF),
            _ABSENT if dl_vlan_pcp is None else _PRESENT + bytes((dl_vlan_pcp & 0xFF,)),
            _ABSENT if dl_type is None else _PRESENT + u16(dl_type & 0xFFFF),
            _ABSENT if nw_tos is None else _PRESENT + bytes((nw_tos & 0xFF,)),
            _ABSENT if nw_proto is None else _PRESENT + bytes((nw_proto & 0xFF,)),
            _ABSENT if nw_src is None else _PRESENT + nw_src.to_bytes(),
            _ABSENT if nw_dst is None else _PRESENT + nw_dst.to_bytes(),
            _ABSENT if tp_src is None else _PRESENT + u16(tp_src & 0xFFFF),
            _ABSENT if tp_dst is None else _PRESENT + u16(tp_dst & 0xFFFF),
        )
    )


#: one tag byte per action type, then the operand
_ACTION_ENCODERS = _ActionEncoders({
    Output: lambda a: _OUTPUT.pack(b"O", a.port & 0xFFFFFFFF),
    SetDlSrc: lambda a: b"s" + a.mac.to_bytes(),
    SetDlDst: lambda a: b"d" + a.mac.to_bytes(),
    SetVlanVid: lambda a: b"v" + _U16.pack(a.vid & 0xFFFF),
    StripVlan: lambda a: b"V",
    SetNwSrc: lambda a: b"n" + a.ip.to_bytes(),
    SetNwDst: lambda a: b"N" + a.ip.to_bytes(),
    SetTpSrc: lambda a: b"t" + _U16.pack(a.port & 0xFFFF),
    SetTpDst: lambda a: b"T" + _U16.pack(a.port & 0xFFFF),
})


def encode_action(action: object) -> bytes:
    return _ACTION_ENCODERS[type(action)](action)


def _put_actions(parts: list, actions) -> None:
    """Append each action's encoding to ``parts`` (nearly every action a
    controller sends is an ``Output``: it is encoded here, not looked up)."""
    for action in actions:
        if type(action) is Output:
            parts.append(_OUTPUT.pack(b"O", action.port & 0xFFFFFFFF))
        else:
            parts.append(_ACTION_ENCODERS[type(action)](action))


def encode_actions(actions) -> bytes:
    parts = [_U16.pack(len(actions))]
    _put_actions(parts, actions)
    return b"".join(parts)


def _flow_mod_head(command: str) -> bytes:
    """``F``, then the command, length-prefixed."""
    encoded = command.encode("utf-8")
    return b"F" + bytes((len(encoded),)) + encoded


#: the head of a FlowMod with a standard command (a lying replica may send
#: any other string: it is encoded on the spot)
_FLOW_MOD_HEADS = {
    command: _flow_mod_head(command)
    for command in (FLOWMOD_ADD, FLOWMOD_DELETE, FLOWMOD_DELETE_STRICT)
}


def encode_flow_mod(mod: FlowMod) -> bytes:
    command = mod.command
    head = _FLOW_MOD_HEADS.get(command)
    if head is None:
        head = _flow_mod_head(command)
    actions = mod.actions
    tail = _FLOW_MOD_TAIL.pack(
        mod.priority, mod.idle_timeout, mod.hard_timeout, mod.cookie
    )
    if len(actions) == 1 and type(actions[0]) is Output:
        # nearly every FlowMod a controller sends: one Output
        return b"".join((
            head,
            encode_match(mod.match),
            _LONE_OUTPUT.pack(1, b"O", actions[0].port & 0xFFFFFFFF),
            tail,
        ))
    parts = [head, encode_match(mod.match), _U16.pack(len(actions))]
    _put_actions(parts, actions)
    parts.append(tail)
    return b"".join(parts)


def encode_packet_out(out: PacketOut) -> bytes:
    actions = out.actions
    buffer_id = out.buffer_id
    in_port = out.in_port & 0xFFFFFFFF
    if buffer_id is None:
        tail = _PACKET_OUT_TAIL.pack(0, in_port, len(actions))
    else:
        tail = _PACKET_OUT_TAIL_BUFFERED.pack(1, buffer_id, in_port, len(actions))
    packet = out.packet
    if packet is None:
        parts = [b"P", _ABSENT, tail]
    else:
        wire = packet.to_bytes()
        parts = [b"P", _PRESENT, _U32.pack(len(wire)), wire, tail]
    _put_actions(parts, actions)
    return b"".join(parts)


def digest(message: object) -> bytes:
    """Canonical bytes of one controller->switch message.

    Two messages have equal digests iff every protocol-visible field is
    equal — the control-plane analogue of bit-exact packet comparison.
    The type must be exactly one of the two (the trusted voter must never
    release bytes it cannot canonicalise).
    """
    kind = type(message)
    if kind is PacketOut:
        return encode_packet_out(message)
    if kind is FlowMod:
        return encode_flow_mod(message)
    raise DigestError(f"cannot canonicalise control message {kind.__name__}")
