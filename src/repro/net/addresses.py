"""MAC and IPv4 address value types.

Both types are what the header fields are on the wire: fixed-width
unsigned integers.  Each is an immutable ``int`` subclass, so hashing,
equality and ordering are ``int``'s own (C-level, and independent of
``PYTHONHASHSEED``), and an address equals the integer it holds:
``MacAddress(v) == v``.  Building one from an instance returns that
instance.  What they add is range checking, parsing from text and bytes,
and their own rendering (``str``, ``repr``, ``to_bytes``), so that
packets containing them serialise bit-for-bit identically — a
prerequisite for the NetCo compare element, which votes on exact packet
bytes (the paper's prototype uses ``memcmp``).
"""

from __future__ import annotations

import re
from typing import Union

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}$")
_IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


class MacAddress(int):
    """A 48-bit Ethernet MAC address."""

    __slots__ = ()

    BROADCAST: "MacAddress"

    def __new__(cls, value: Union[str, int, bytes, "MacAddress"]) -> "MacAddress":
        if type(value) is cls:
            return value
        if isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise ValueError(f"MAC integer out of range: {value:#x}")
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise ValueError(f"MAC bytes must have length 6, got {len(value)}")
            value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            if not _MAC_RE.match(value):
                raise ValueError(f"malformed MAC address: {value!r}")
            value = int(value.replace(":", ""), 16)
        else:
            raise TypeError(f"cannot build MacAddress from {type(value).__name__}")
        return int.__new__(cls, value)

    @classmethod
    def from_index(cls, index: int) -> "MacAddress":
        """Deterministic locally-administered MAC for host/switch *index*."""
        if not 0 <= index < (1 << 40):
            raise ValueError(f"index out of range: {index}")
        return cls((0x02 << 40) | index)

    def to_bytes(self) -> bytes:
        return int.to_bytes(self, 6, "big")

    @property
    def is_broadcast(self) -> bool:
        return self == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        return bool((self >> 40) & 0x01)

    def __str__(self) -> str:
        raw = f"{self:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


MacAddress.BROADCAST = MacAddress("ff:ff:ff:ff:ff:ff")


class IpAddress(int):
    """A 32-bit IPv4 address."""

    __slots__ = ()

    def __new__(cls, value: Union[str, int, bytes, "IpAddress"]) -> "IpAddress":
        if type(value) is cls:
            return value
        if isinstance(value, int):
            if not 0 <= value < (1 << 32):
                raise ValueError(f"IPv4 integer out of range: {value:#x}")
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 4:
                raise ValueError(f"IPv4 bytes must have length 4, got {len(value)}")
            value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            match = _IP_RE.match(value)
            if not match:
                raise ValueError(f"malformed IPv4 address: {value!r}")
            octets = [int(g) for g in match.groups()]
            if any(o > 255 for o in octets):
                raise ValueError(f"IPv4 octet out of range: {value!r}")
            value = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
        else:
            raise TypeError(f"cannot build IpAddress from {type(value).__name__}")
        return int.__new__(cls, value)

    @classmethod
    def from_index(cls, index: int, base: str = "10.0.0.0") -> "IpAddress":
        """Deterministic address ``base + index`` (Mininet-style 10.0.0.x)."""
        return cls(cls(base) + index)

    def to_bytes(self) -> bytes:
        return int.to_bytes(self, 4, "big")

    def __str__(self) -> str:
        return f"{(self >> 24) & 0xFF}.{(self >> 16) & 0xFF}.{(self >> 8) & 0xFF}.{self & 0xFF}"

    def __repr__(self) -> str:
        return f"IpAddress('{self}')"
