"""Datagram framing for transport messages over real sockets.

One UDP datagram carries one message::

    magic   2B  b"NC"
    version 1B
    mtype   1B  DATA / HELLO / BYE
    role    1B  session role (fanout 0 / collect 1 / release 2)
    branch  2B  int16, -1 = none
    claim   2B  int16, -1 = none
    seq     4B  uint32 sender message counter
    t_ns    8B  uint64 sender virtual-time nanoseconds (informational)
    scope   1B length + utf-8 bytes
    payload rest: the packet wire image (Ethernet frame)

An honest sender's payload is exactly what
:meth:`repro.net.packet.Packet.to_bytes` produces; the receiver wraps it
as received in a read-only :class:`WireFrame`, so the compare votes on
the bytes that arrived: an honest copy's are the bytes the DES backend's
bit-exact policy sees, and any other copy votes as exactly what it sent.
HELLO/BYE are session-lifecycle control messages (no payload): a sender
announces itself and signals end-of-stream so the receiver can stop
without guessing.  Datagrams come from the network:
:func:`decode_message` raises :class:`TransportError` for every
malformed one, nothing else, and :class:`WireFrame` raises
:class:`~repro.net.layout.PacketError` for every payload that is no
frame.

Both directions run once per datagram, so neither builds more than it
must: a sender lays out a session's constant bytes once
(:func:`message_parts`) and packs only the per-message fields; the
decoder builds its :class:`WireMessage` as one tuple and decodes each
distinct scope once; a :class:`WireFrame` walks the headers once and
keeps the bytes it was given, never a packet built from them.
"""

from __future__ import annotations

import struct
from typing import Dict, NamedTuple, Optional, Tuple

from repro.net.layout import (
    ETH_TYPE_IPV4,
    ETH_TYPE_VLAN,
    ETHERNET_HEADER_LEN,
    ICMP_HEADER_LEN,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    IPV4_HEADER_LEN,
    TCP_HEADER_LEN,
    UDP_HEADER_LEN,
    VLAN_TAG_LEN,
    PacketError,
)
from repro.transport.base import (
    ROLE_COLLECT,
    ROLE_FANOUT,
    ROLE_RELEASE,
    TransportError,
)

MAGIC = b"NC"
VERSION = 1

MSG_DATA = 0
MSG_HELLO = 1
MSG_BYE = 2
_MTYPES = (MSG_DATA, MSG_HELLO, MSG_BYE)

_ROLE_CODES = {
    ROLE_FANOUT: 0,
    ROLE_COLLECT: 1,
    ROLE_RELEASE: 2,
}
_CODE_ROLES = {code: role for role, code in _ROLE_CODES.items()}

_FIXED = struct.Struct("!2sBBBhhIQ")
#: what a sender fills in per message: branch, claim, seq, t_ns (-1 is
#: "none" for the first two)
MESSAGE_FIELDS = struct.Struct("!hhIQ")
#: decoded scopes, by their wire bytes; emptied when it gets here (the
#: bytes come from the network)
SCOPE_MEMO_ENTRIES = 256
_scopes: Dict[bytes, str] = {}


class WireMessage(NamedTuple):
    """A decoded transport datagram."""

    mtype: int
    role: str
    scope: str
    branch: Optional[int]
    claim: Optional[int]
    seq: int
    t_ns: int
    payload: bytes


_message = tuple.__new__


def _constant_part(mtype: int, role: str, scope: str) -> Tuple[int, int, bytes]:
    """Validated ``(mtype, role code, length-prefixed scope)``."""
    if mtype not in _MTYPES:
        raise TransportError(f"unknown message type {mtype}")
    role_code = _ROLE_CODES.get(role)
    if role_code is None:
        raise TransportError(f"unknown role {role!r}")
    scope_bytes = scope.encode("utf-8")
    if len(scope_bytes) > 255:
        raise TransportError(f"scope too long ({len(scope_bytes)} bytes)")
    return mtype, role_code, bytes((len(scope_bytes),)) + scope_bytes


def message_parts(mtype: int, role: str, scope: str) -> Tuple[bytes, bytes]:
    """``(lead, scope_field)`` of every ``(mtype, role, scope)`` message,
    validated and laid out once: a datagram is ``lead +
    MESSAGE_FIELDS.pack(branch, claim, seq, t_ns) + scope_field +
    payload``, so a session packs only the fields that change."""
    mtype, role_code, scope_field = _constant_part(mtype, role, scope)
    return MAGIC + bytes((VERSION, mtype, role_code)), scope_field


def out_of_range(branch: Optional[int], claim: Optional[int]) -> TransportError:
    """The error for a branch or claim ``MESSAGE_FIELDS`` cannot hold."""
    return TransportError(
        f"branch={branch} claim={claim} outside the int16 frame fields"
    )


def encode_message(
    mtype: int,
    role: str,
    scope: str,
    payload: bytes = b"",
    branch: Optional[int] = None,
    claim: Optional[int] = None,
    seq: int = 0,
    t_ns: int = 0,
) -> bytes:
    lead, scope_field = message_parts(mtype, role, scope)
    try:
        fields = MESSAGE_FIELDS.pack(
            -1 if branch is None else branch,
            -1 if claim is None else claim,
            seq & 0xFFFFFFFF,
            t_ns & 0xFFFFFFFFFFFFFFFF,
        )
    except struct.error:
        raise out_of_range(branch, claim) from None
    return lead + fields + scope_field + payload


class WireFrame:
    """A received frame, read-only: the bytes that arrived, validated.

    What the live compare reads of a copy: ``to_bytes()`` is the payload
    bytes themselves, ``wire_len`` their length, ``trace_id`` ``None``
    and ``payload`` the frame's own payload, sliced out when read.  The
    constructor walks the headers and raises :class:`PacketError` for
    exactly the frames :meth:`~repro.net.packet.Packet.parse` rejects:
    truncated headers, an IPv4 version other than 4, a bad IPv4 header
    checksum, a bad UDP length and a bad TCP data offset.  It checks
    nothing more: the L4 checksum and the fields the packet model does
    not hold are the sender's bytes, and the frame votes as them.
    Nothing about a frame can be assigned, so a receiver needs no copy
    of its own.
    """

    __slots__ = ("_data", "_start", "_stop", "wire_len")

    #: a received frame carries no packet-lifecycle span
    trace_id = None

    def __init__(self, data: bytes) -> None:
        size = len(data)
        if size < ETHERNET_HEADER_LEN:
            raise PacketError("truncated Ethernet header")
        off = ETHERNET_HEADER_LEN
        ethertype = data[12] << 8 | data[13]
        if ethertype == ETH_TYPE_VLAN:
            if size < off + VLAN_TAG_LEN:
                raise PacketError("truncated VLAN tag")
            ethertype = data[16] << 8 | data[17]
            off += VLAN_TAG_LEN
        start, stop = off, size
        if ethertype == ETH_TYPE_IPV4:
            if size < off + IPV4_HEADER_LEN:
                raise PacketError("truncated IPv4 header")
            if data[off] >> 4 != 4:
                raise PacketError(f"not an IPv4 packet (version={data[off] >> 4})")
            # RFC 1071, as Packet.parse verifies it: ``2**16 ≡ 1 (mod
            # 0xFFFF)``, so the header's 16-bit words sum as one integer,
            # and with its stored checksum right that sum is a multiple
            # of 0xFFFF (never zero: the version nibble is 4)
            header = int.from_bytes(data[off : off + IPV4_HEADER_LEN], "big")
            if header % 0xFFFF:
                raise PacketError("bad IPv4 header checksum")
            # the IP payload as Packet.parse slices it: up to total_length,
            # and a total_length below the header's own size cuts from the
            # end of the frame
            start = off + IPV4_HEADER_LEN
            total_length = data[off + 2] << 8 | data[off + 3]
            stop = (
                off + total_length if total_length >= IPV4_HEADER_LEN
                else size + total_length - IPV4_HEADER_LEN
            )
            stop = max(start, min(stop, size))
            seg_len = stop - start
            proto = data[off + 9]
            if proto == IP_PROTO_UDP:
                if seg_len < UDP_HEADER_LEN:
                    raise PacketError("truncated UDP header")
                length = data[start + 4] << 8 | data[start + 5]
                if length < UDP_HEADER_LEN or length > seg_len:
                    raise PacketError(f"bad UDP length {length}")
                start, stop = start + UDP_HEADER_LEN, start + length
            elif proto == IP_PROTO_TCP:
                if seg_len < TCP_HEADER_LEN:
                    raise PacketError("truncated TCP header")
                data_offset = (data[start + 12] >> 4) * 4
                if data_offset < TCP_HEADER_LEN or data_offset > seg_len:
                    raise PacketError(f"bad TCP data offset {data_offset}")
                start += data_offset
            elif proto == IP_PROTO_ICMP:
                if seg_len < ICMP_HEADER_LEN:
                    raise PacketError("truncated ICMP header")
                start += ICMP_HEADER_LEN
        _set_data(self, data)
        _set_start(self, start)
        _set_stop(self, stop)
        _set_wire_len(self, size)

    def to_bytes(self) -> bytes:
        """The frame as it arrived."""
        return self._data

    @property
    def payload(self) -> bytes:
        return self._data[self._start : self._stop]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a received frame is read-only ({name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"a received frame is read-only ({name!r})")


# a new frame fills its slots past its own ``__setattr__``
_set_data = WireFrame._data.__set__
_set_start = WireFrame._start.__set__
_set_stop = WireFrame._stop.__set__
_set_wire_len = WireFrame.wire_len.__set__


def decode_message(data: bytes) -> WireMessage:
    if len(data) < _FIXED.size + 1:
        raise TransportError(f"datagram too short ({len(data)} bytes)")
    magic, version, mtype, role_code, branch, claim, seq, t_ns = _FIXED.unpack_from(
        data
    )
    if magic != MAGIC:
        raise TransportError(f"bad magic {magic!r}")
    if version != VERSION:
        raise TransportError(f"unsupported version {version}")
    if mtype not in _MTYPES:
        raise TransportError(f"unknown message type {mtype}")
    role = _CODE_ROLES.get(role_code)
    if role is None:
        raise TransportError(f"unknown role code {role_code}")
    offset = _FIXED.size + 1
    end = offset + data[offset - 1]
    if len(data) < end:
        raise TransportError("truncated scope")
    raw = data[offset:end]
    scope = _scopes.get(raw)
    if scope is None:
        try:
            scope = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise TransportError("scope is not UTF-8") from None
        if len(_scopes) >= SCOPE_MEMO_ENTRIES:
            _scopes.clear()
        _scopes[raw] = scope
    return _message(WireMessage, (
        mtype, role, scope,
        None if branch < 0 else branch,
        None if claim < 0 else claim,
        seq, t_ns, data[end:],
    ))
