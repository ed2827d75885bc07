"""The table-dispatched digest writes the bytes the isinstance chains did.

``REFERENCE_*`` below is a copy of ``repro/ctrl/digest.py`` as it stood
before the encoders were flattened (helper per optional field, isinstance
chain per action and message, one ``struct`` per FlowMod tail field); the
vote key is these bytes, so the rewrite must agree on every input.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctrl.digest import (
    DigestError,
    digest,
    encode_action,
    encode_actions,
    encode_match,
)
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
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
from repro.openflow.messages import FlowMod, PacketIn, PacketOut

_F64 = struct.Struct("!d")
_I64 = struct.Struct("!q")
_U32 = struct.Struct("!I")
_U16 = struct.Struct("!H")

_ACTION_TAGS = {
    Output: b"O",
    SetDlSrc: b"s",
    SetDlDst: b"d",
    SetVlanVid: b"v",
    StripVlan: b"V",
    SetNwSrc: b"n",
    SetNwDst: b"N",
    SetTpSrc: b"t",
    SetTpDst: b"T",
}


def _opt(value):
    if value is None:
        return b"\x00"
    return b"\x01" + value


def _opt_u16(value):
    return _opt(None if value is None else _U16.pack(value & 0xFFFF))


def _opt_u32(value):
    return _opt(None if value is None else _U32.pack(value & 0xFFFFFFFF))


def _opt_u8(value):
    return _opt(None if value is None else bytes([value & 0xFF]))


def reference_encode_match(match):
    return b"".join(
        (
            b"M",
            _opt_u32(match.in_port),
            _opt(match.dl_src.to_bytes() if match.dl_src is not None else None),
            _opt(match.dl_dst.to_bytes() if match.dl_dst is not None else None),
            _opt_u16(match.dl_vlan),
            _opt_u8(match.dl_vlan_pcp),
            _opt_u16(match.dl_type),
            _opt_u8(match.nw_tos),
            _opt_u8(match.nw_proto),
            _opt(match.nw_src.to_bytes() if match.nw_src is not None else None),
            _opt(match.nw_dst.to_bytes() if match.nw_dst is not None else None),
            _opt_u16(match.tp_src),
            _opt_u16(match.tp_dst),
        )
    )


def reference_encode_action(action):
    tag = _ACTION_TAGS.get(type(action))
    if tag is None:
        raise DigestError(f"cannot canonicalise action {type(action).__name__}")
    if isinstance(action, Output):
        return tag + _U32.pack(action.port & 0xFFFFFFFF)
    if isinstance(action, (SetDlSrc, SetDlDst)):
        return tag + action.mac.to_bytes()
    if isinstance(action, SetVlanVid):
        return tag + _U16.pack(action.vid & 0xFFFF)
    if isinstance(action, StripVlan):
        return tag
    if isinstance(action, (SetNwSrc, SetNwDst)):
        return tag + action.ip.to_bytes()
    return tag + _U16.pack(action.port & 0xFFFF)


def reference_encode_actions(actions):
    encoded = [reference_encode_action(a) for a in actions]
    return _U16.pack(len(encoded)) + b"".join(encoded)


def reference_digest(message):
    if isinstance(message, FlowMod):
        command = message.command.encode("utf-8")
        return b"".join(
            (
                b"F",
                bytes([len(command)]),
                command,
                reference_encode_match(message.match),
                reference_encode_actions(message.actions),
                _I64.pack(message.priority),
                _F64.pack(message.idle_timeout),
                _F64.pack(message.hard_timeout),
                _I64.pack(message.cookie),
            )
        )
    if isinstance(message, PacketOut):
        if message.packet is None:
            payload = _opt(None)
        else:
            wire = message.packet.to_bytes()
            payload = _opt(_U32.pack(len(wire)) + wire)
        return b"".join(
            (
                b"P",
                payload,
                _opt(None if message.buffer_id is None else _I64.pack(message.buffer_id)),
                _U32.pack(message.in_port & 0xFFFFFFFF),
                reference_encode_actions(message.actions),
            )
        )
    raise DigestError(
        f"cannot canonicalise control message {type(message).__name__}"
    )


# ----------------------------------------------------------------------
# random inputs: the masks make out-of-range and negative ints legal
# ----------------------------------------------------------------------
any_int = st.integers(-(1 << 40), 1 << 40)
i64 = st.integers(-(1 << 63), (1 << 63) - 1)
macs = st.integers(0, (1 << 48) - 1).map(MacAddress)
ips = st.integers(0, (1 << 32) - 1).map(IpAddress)
finite = st.floats(allow_nan=False)


def optional(strategy):
    return st.none() | strategy


matches = st.builds(
    Match,
    in_port=optional(any_int),
    dl_src=optional(macs),
    dl_dst=optional(macs),
    dl_vlan=optional(any_int),
    dl_vlan_pcp=optional(any_int),
    dl_type=optional(any_int),
    nw_tos=optional(any_int),
    nw_proto=optional(any_int),
    nw_src=optional(ips),
    nw_dst=optional(ips),
    tp_src=optional(any_int),
    tp_dst=optional(any_int),
)
actions = st.one_of(
    st.builds(Output, any_int),
    st.builds(SetDlSrc, macs),
    st.builds(SetDlDst, macs),
    st.builds(SetVlanVid, any_int),
    st.builds(StripVlan),
    st.builds(SetNwSrc, ips),
    st.builds(SetNwDst, ips),
    st.builds(SetTpSrc, any_int),
    st.builds(SetTpDst, any_int),
)
action_lists = st.lists(actions, max_size=6)
packets = st.builds(
    lambda src, dst, payload: Packet.udp(
        src, dst, IpAddress.from_index(1), IpAddress.from_index(2), 1, 2,
        payload=payload,
    ),
    macs, macs, st.binary(max_size=64),
)
flow_mods = st.builds(
    FlowMod,
    command=st.sampled_from(["add", "delete", "delete_strict", "", "é"]),
    match=matches,
    actions=action_lists,
    priority=i64,
    idle_timeout=finite,
    hard_timeout=finite,
    cookie=i64,
)
packet_outs = st.builds(
    PacketOut,
    packet=optional(packets),
    actions=action_lists,
    in_port=any_int,
    buffer_id=optional(i64),
)


class Unknown:
    """Neither an action nor a control message."""


@given(matches, action_lists, flow_mods | packet_outs)
@settings(max_examples=200)
def test_encodings_equal_the_reference(match, action_list, message):
    assert encode_match(match) == reference_encode_match(match)
    assert encode_actions(action_list) == reference_encode_actions(action_list)
    assert [encode_action(a) for a in action_list] == [
        reference_encode_action(a) for a in action_list
    ]
    assert digest(message) == reference_digest(message)
    for encode in (encode_actions, reference_encode_actions):
        with pytest.raises(DigestError, match="action Unknown"):
            encode([*action_list, Unknown()])
    for unknown in (Unknown(), PacketIn(1, None, 1)):
        for encode in (digest, reference_digest):
            with pytest.raises(DigestError, match="control message"):
                encode(unknown)
