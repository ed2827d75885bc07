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
:meth:`repro.net.packet.Packet.to_bytes` produces; the receiver hands it
to ``Packet.parse`` as received, which keeps a canonical frame as the
packet's wire image — the compare votes on the bytes that arrived, the
same bytes the DES backend's bit-exact policy sees.  HELLO/BYE are
session-lifecycle control messages (no payload): a sender announces
itself and signals end-of-stream so the receiver can stop without
guessing.  Datagrams come from the network: :func:`decode_message`
raises :class:`TransportError` for every malformed one, nothing else.

Both directions run once per datagram, so neither builds more than it
must: a sender lays out a session's constant bytes once
(:func:`message_parts`) and packs only the per-message fields; the
decoder builds its :class:`WireMessage` as one tuple and decodes each
distinct scope once.
"""

from __future__ import annotations

import struct
from typing import Dict, NamedTuple, Optional, Tuple

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
