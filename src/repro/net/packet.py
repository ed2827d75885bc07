"""Packet model: Ethernet / 802.1Q / IPv4 / UDP / TCP / ICMP.

Headers are small mutable dataclass-like objects with deterministic binary
encodings (network byte order, real Internet checksums).  Determinism
matters because the NetCo compare element votes on *exact packet bytes*,
mirroring the ``memcmp`` comparison in the paper's C prototype: two benign
routers forwarding the same packet must yield bit-identical buffers, while
any adversarial header rewrite must change the buffer.

A :class:`Packet` is a stack ``ethernet [vlan] [ipv4 [udp|tcp|icmp]]`` plus
an opaque payload.  ``Packet.to_bytes()`` serialises the full frame and
``Packet.parse()`` round-trips it.

Hot-path machinery (see DESIGN.md "Per-packet hot path"):

* every header carries a monotonic version counter bumped on field writes,
  so a packet can memoise its serialised frame (``to_bytes`` returns the
  cached wire image until some header or the payload changes);
* ``Packet.copy()`` is copy-on-write: the k-way fan-out of a hub shares
  header objects, payload and the cached wire image, and a branch pays for
  private header copies only when it actually mutates them;
* :func:`internet_checksum` reduces the buffer as one big integer mod
  0xFFFF, and :func:`incremental_checksum_update` implements RFC 1624 so
  :meth:`Packet.decrement_ttl` patches the cached image in place;
* a traffic source stamps each CBR datagram or TCP segment from a
  template frame serialised once (:mod:`repro.net.stamp`, which builds
  packets through this module's internals; no trusted element loads it);
* :meth:`Packet.parse` keeps the bytes it was given as the wire image when
  they are provably what serialising the parsed headers would rebuild, so
  a parsed canonical frame is keyed and sent without re-serialising (the
  live transport builds no packet: it hands on a read-only
  :class:`~repro.transport.wire.WireFrame`);
* a packet holds its payload bytes once: in ``_payload`` while it has no
  wire image, inside the image (its tail, from ``_hlen`` on) once it has
  one.  ``payload`` slices it back out as ``bytes`` (``fields()`` returns
  the headers only), and every site that replaces the image moves the
  span into the new one, or materialises it first when no image is left.

**Mutability contract**: packets are mutable, but equality and hashing are
defined over the serialised bytes.  Mutating a header *after* using the
packet as a dict/set key is a bug (the stored hash is stale, as for any
mutable key); the wire-image cache itself always invalidates correctly —
``to_bytes``/``__hash__`` recompute after any header or payload write.
Holding a header reference across ``Packet.copy()`` and mutating it
directly raises :class:`PacketError` (the header may be shared with the
sibling copy); go through the owning packet's attribute instead, which
materialises a private header first.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Union

from repro.net.addresses import IpAddress, MacAddress
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

# TCP flags
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
# The ECE bit position, reused to signal "this duplicate ACK carries a
# DSACK block" (RFC 2883).  Our 20-byte header has no options space, so
# the receiver flags DSACK-bearing ACKs here and a SACK-capable sender
# excludes them from its duplicate-ACK count — the behaviour that lets
# real Linux TCP shrug off the duplicated deliveries of the Dup3/Dup5
# scenarios instead of collapsing under spurious fast retransmits.
TCP_DSACK = 0x40

# ICMP types
ICMP_ECHO_REPLY = 0
ICMP_ECHO_REQUEST = 8

#: a checksummed payload is read in slices of up to this many bytes (an
#: even number): the reduction mod 0xFFFF costs per digit of the number
#: it reduces, so it reduces the slices' sum, a slice-sized number
_CHECKSUM_SLICE = 512


def internet_checksum(data: bytes, tail: bytes = b"") -> int:
    """RFC 1071 ones-complement checksum over ``data`` followed by ``tail``.

    ``2**16 ≡ 1 (mod 0xFFFF)``, so the ones-complement sum of the
    big-endian 16-bit words is the whole buffer read as one big integer,
    reduced mod 0xFFFF — C-level conversions and one C-level division.
    The reduction yields 0 where the folded sum is 0xFFFF (a non-zero
    multiple of 0xFFFF); only an all-zero buffer sums to a true zero.
    For the same reason pieces that start at even offsets sum apart and
    add up: an even-length ``data`` and the ``tail`` behind it (a header
    and its payload are never joined into one buffer), and the slices of
    a long tail.
    """
    total = int.from_bytes(data, "big")
    if tail:
        size = len(tail)
        at = 0
        while size - at > _CHECKSUM_SLICE:
            total += int.from_bytes(tail[at : at + _CHECKSUM_SLICE], "big")
            at += _CHECKSUM_SLICE
        rest = int.from_bytes(tail[at:], "big")
        if size & 1:
            rest <<= 8  # pad the odd trailing byte to a word
        total += rest
    elif len(data) & 1:
        total <<= 8  # pad the odd trailing byte to a word
    folded = total % 0xFFFF
    return 0xFFFF - folded if folded or not total else 0


def incremental_checksum_update(checksum: int, old_word: int, new_word: int) -> int:
    """RFC 1624 (eqn. 3) checksum update for one rewritten 16-bit field.

    ``HC' = ~(~HC + ~m + m')`` with end-around carry; bit-identical to a
    full recompute for IP headers (whose word sum is never zero).
    """
    total = (~checksum & 0xFFFF) + (~old_word & 0xFFFF) + (new_word & 0xFFFF)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class _Header:
    """Base for header objects: version counter + copy-on-write guard.

    Every public field write bumps ``_v``, letting :class:`Packet` detect
    a stale cached wire image with a few integer compares.  ``_shared``
    is set when the header becomes referenced by more than one CoW packet
    copy; mutating a shared header directly raises, because the write
    would silently leak into sibling copies — access the header through
    the owning packet's attribute instead, which materialises a private
    copy first.

    Constructors write their fields with :meth:`_init` (plain
    ``object.__setattr__``), both because a half-built header has no
    bookkeeping slots yet and because header construction is itself hot
    (every parse, copy and materialisation runs one).
    """

    __slots__ = ("_v", "_shared")

    def _init(self) -> Callable[[object, str, object], None]:
        """Start __init__: create bookkeeping slots, return a raw setter."""
        setter = object.__setattr__
        setter(self, "_shared", False)
        setter(self, "_v", 0)
        return setter

    def __setattr__(self, name: str, value: object) -> None:
        if self._shared:
            raise PacketError(
                f"cannot set {name!r} on a {type(self).__name__} shared by "
                "copy-on-write packet copies; access it via the owning "
                "Packet attribute to materialise a private copy first"
            )
        object.__setattr__(self, name, value)
        object.__setattr__(self, "_v", self._v + 1)


class Ethernet(_Header):
    """Ethernet II header (no FCS; the simulator has no bit errors)."""

    __slots__ = ("dst", "src", "ethertype")

    def __init__(
        self,
        dst: MacAddress,
        src: MacAddress,
        ethertype: int = ETH_TYPE_IPV4,
    ) -> None:
        s = self._init()
        # an address is kept as itself, with no constructor call
        s(self, "dst", dst if type(dst) is MacAddress else MacAddress(dst))
        s(self, "src", src if type(src) is MacAddress else MacAddress(src))
        s(self, "ethertype", ethertype)

    def to_bytes(self) -> bytes:
        # the addresses are ints: the header is one 112-bit big-endian word
        return ((self.dst << 64) | (self.src << 16) | self.ethertype).to_bytes(14, "big")

    def copy(self) -> "Ethernet":
        return Ethernet(self.dst, self.src, self.ethertype)

    def __repr__(self) -> str:
        return f"Ethernet({self.src} -> {self.dst}, type={self.ethertype:#06x})"


class Vlan(_Header):
    """An 802.1Q tag (PCP + VID); inserted after the Ethernet header."""

    __slots__ = ("vid", "pcp")

    def __init__(self, vid: int, pcp: int = 0) -> None:
        if not 0 <= vid < 4096:
            raise PacketError(f"VLAN id out of range: {vid}")
        if not 0 <= pcp < 8:
            raise PacketError(f"VLAN priority out of range: {pcp}")
        s = self._init()
        s(self, "vid", vid)
        s(self, "pcp", pcp)

    def to_bytes(self, inner_ethertype: int) -> bytes:
        tci = (self.pcp << 13) | self.vid
        return struct.pack("!HH", tci, inner_ethertype)

    def copy(self) -> "Vlan":
        return Vlan(self.vid, self.pcp)

    def __repr__(self) -> str:
        return f"Vlan(vid={self.vid}, pcp={self.pcp})"


class Ipv4(_Header):
    """IPv4 header (20 bytes, no options)."""

    __slots__ = ("src", "dst", "proto", "ttl", "ident", "tos", "total_length")

    def __init__(
        self,
        src: IpAddress,
        dst: IpAddress,
        proto: int,
        ttl: int = 64,
        ident: int = 0,
        tos: int = 0,
    ) -> None:
        s = self._init()
        s(self, "src", src if type(src) is IpAddress else IpAddress(src))
        s(self, "dst", dst if type(dst) is IpAddress else IpAddress(dst))
        s(self, "proto", proto)
        s(self, "ttl", ttl)
        s(self, "ident", ident & 0xFFFF)
        s(self, "tos", tos)
        # Filled in at serialisation time from actual packet contents.
        s(self, "total_length", 0)

    def to_bytes(self, payload_len: int) -> bytes:
        # total_length is derived from the buffer being built, so writing
        # it is not a mutation: bypass the version/shared bookkeeping
        # (serialising a CoW-shared header must stay legal and cheap).
        object.__setattr__(self, "total_length", IPV4_HEADER_LEN + payload_len)
        header = struct.pack(
            "!BBHHHBBHII",
            (4 << 4) | 5,  # version=4, ihl=5
            self.tos,
            self.total_length,
            self.ident,
            0,  # flags/fragment offset: never fragmented in the simulator
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            self.src,
            self.dst,
        )
        checksum = internet_checksum(header)
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    def copy(self) -> "Ipv4":
        dup = Ipv4(self.src, self.dst, self.proto, ttl=self.ttl, ident=self.ident, tos=self.tos)
        object.__setattr__(dup, "total_length", self.total_length)
        return dup

    def __repr__(self) -> str:
        return f"Ipv4({self.src} -> {self.dst}, proto={self.proto}, ttl={self.ttl})"


class Udp(_Header):
    """UDP header.  Checksum computed over the standard pseudo-header;
    :meth:`Packet._serialise` writes it and its IPv4 header together."""

    __slots__ = ("sport", "dport")

    def __init__(self, sport: int, dport: int) -> None:
        for port in (sport, dport):
            if not 0 <= port < 65536:
                raise PacketError(f"port out of range: {port}")
        s = self._init()
        s(self, "sport", sport)
        s(self, "dport", dport)

    def copy(self) -> "Udp":
        return Udp(self.sport, self.dport)

    def __repr__(self) -> str:
        return f"Udp({self.sport} -> {self.dport})"


class Tcp(_Header):
    """TCP header (20 bytes, no options)."""

    __slots__ = ("sport", "dport", "seq", "ack", "flags", "window")

    def __init__(
        self,
        sport: int,
        dport: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        window: int = 65535,
    ) -> None:
        for port in (sport, dport):
            if not 0 <= port < 65536:
                raise PacketError(f"port out of range: {port}")
        s = self._init()
        s(self, "sport", sport)
        s(self, "dport", dport)
        s(self, "seq", seq & 0xFFFFFFFF)
        s(self, "ack", ack & 0xFFFFFFFF)
        s(self, "flags", flags)
        s(self, "window", window & 0xFFFF)

    def to_bytes(self, ip: Ipv4, payload: bytes) -> bytes:
        header = struct.pack(
            "!HHIIBBHHH",
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            5 << 4,  # data offset = 5 words
            self.flags,
            self.window,
            0,  # checksum placeholder
            0,  # urgent pointer
        )
        pseudo = struct.pack(
            "!IIBBH", ip.src, ip.dst, 0, IP_PROTO_TCP, TCP_HEADER_LEN + len(payload)
        )
        checksum = internet_checksum(pseudo + header, payload)
        return header[:16] + struct.pack("!H", checksum) + header[18:]

    def copy(self) -> "Tcp":
        return Tcp(self.sport, self.dport, self.seq, self.ack, self.flags, self.window)

    def flags_str(self) -> str:
        names = [
            ("S", TCP_SYN),
            ("A", TCP_ACK),
            ("F", TCP_FIN),
            ("R", TCP_RST),
            ("P", TCP_PSH),
        ]
        return "".join(n for n, m in names if self.flags & m) or "."

    def __repr__(self) -> str:
        return (
            f"Tcp({self.sport} -> {self.dport}, seq={self.seq}, "
            f"ack={self.ack}, flags={self.flags_str()})"
        )


class Icmp(_Header):
    """ICMP echo request/reply header."""

    __slots__ = ("icmp_type", "code", "ident", "seqno")

    def __init__(self, icmp_type: int, code: int = 0, ident: int = 0, seqno: int = 0) -> None:
        s = self._init()
        s(self, "icmp_type", icmp_type)
        s(self, "code", code)
        s(self, "ident", ident & 0xFFFF)
        s(self, "seqno", seqno & 0xFFFF)

    @property
    def is_echo_request(self) -> bool:
        return self.icmp_type == ICMP_ECHO_REQUEST

    @property
    def is_echo_reply(self) -> bool:
        return self.icmp_type == ICMP_ECHO_REPLY

    def to_bytes(self, payload: bytes) -> bytes:
        header = struct.pack("!BBHHH", self.icmp_type, self.code, 0, self.ident, self.seqno)
        checksum = internet_checksum(header, payload)
        return header[:2] + struct.pack("!H", checksum) + header[4:]

    def copy(self) -> "Icmp":
        return Icmp(self.icmp_type, self.code, self.ident, self.seqno)

    def __repr__(self) -> str:
        kind = {0: "echo-reply", 8: "echo-request"}.get(self.icmp_type, str(self.icmp_type))
        return f"Icmp({kind}, id={self.ident}, seq={self.seqno})"


TransportHeader = Union[Udp, Tcp, Icmp]

# Packet.parse reads each header's fields in place, at an offset
_VLAN_FIELDS = struct.Struct("!HH").unpack_from
_IPV4_FIELDS = struct.Struct("!BBHHHBBHII").unpack_from
_UDP_FIELDS = struct.Struct("!HHHH").unpack_from
_TCP_FIELDS = struct.Struct("!HHIIBBHHH").unpack_from
_ICMP_FIELDS = struct.Struct("!BBHHH").unpack_from
_PSEUDO_TAIL = struct.Struct("!BBH").pack  # zero, protocol, L4 length
# Packet._serialise writes IPv4 + UDP in one pack: the IPv4 header as
# checksummed (its checksum field zero), the UDP pseudo-header and header
# as checksummed, and both headers as sent
_IPV4_HEAD = struct.Struct("!BBHHHBBHII").pack
_UDP_PSEUDO = struct.Struct("!IIxBHHHHxx").pack
_IPV4_UDP = struct.Struct("!BBHHHBBHIIHHHH").pack

# CoW bitmask positions for Packet._cow
_COW_ETH = 1
_COW_VLAN = 2
_COW_IP = 4
_COW_L4 = 8

#: a snapshot no header stack matches: marks a wire image as stale for
#: good (it is then only where the payload bytes live)
_STALE = (-2, -2, -2, -2)


class Packet:
    """A full frame: Ethernet, optional VLAN tag, optional IPv4+transport.

    Instances are mutable (adversaries rewrite headers in place on their
    copy); :meth:`copy` produces an independent copy-on-write duplicate as
    a hub would.  Equality and hashing are defined over the serialised
    bytes, which is exactly the comparison the NetCo compare element
    performs.

    The serialised frame is memoised: ``to_bytes`` returns a cached wire
    image until a header version counter or the payload changes.  See the
    module docstring for the mutability contract.

    Exactly one of ``_payload`` and ``_wire`` is ``None``: once there is
    an image (valid, or stale after a header-field write), the payload
    is ``_wire[_hlen:]`` and nowhere else.
    """

    __slots__ = ("_eth", "_vlan", "_ip", "_l4", "_payload", "_hlen", "meta",
                 "_wire", "_snap", "_cow", "trace_id", "wire_len")

    def __init__(
        self,
        eth: Ethernet,
        ip: Optional[Ipv4] = None,
        l4: Optional[TransportHeader] = None,
        payload: bytes = b"",
        vlan: Optional[Vlan] = None,
    ) -> None:
        if l4 is not None and ip is None:
            raise PacketError("transport header requires an IPv4 header")
        self._eth = eth
        self._vlan = vlan
        self._ip = ip
        self._l4 = l4
        self._payload: Optional[bytes] = payload
        #: header bytes before the payload, and the frame length in bytes
        #: on the wire.  Both depend only on which headers exist (and on
        #: ``len(payload)``) — never on a field value — so they are plain
        #: attributes, rewritten by the setters that can change them and
        #: carried over by :meth:`copy`.
        self._hlen = hlen = self._header_len()
        self.wire_len = hlen + len(payload)
        self._wire: Optional[bytes] = None
        self._snap: Optional[tuple] = None
        self._cow = 0
        # Out-of-band metadata (e.g. the combiner branch id a trusted mux
        # attaches before handing a packet to the compare — the simulator
        # analogue of the in_port field of an OpenFlow Packet-in).  Never
        # serialised, never part of equality, never survives copy().
        self.meta: Optional[dict] = None
        # Packet-lifecycle span id (repro.obs.spans).  Unlike ``meta`` it
        # DOES survive copy(): hub fan-out copies belong to the injected
        # packet's trajectory.  Never serialised, never part of equality.
        self.trace_id: Optional[int] = None

    # ------------------------------------------------------------------
    # header access (copy-on-write aware)
    # ------------------------------------------------------------------
    def _materialise(self, bit: int, slot: str) -> None:
        """Replace a CoW-shared header with a private copy (same bytes)."""
        old = getattr(self, slot)
        if old is not None:
            cache_ok = self._cache_valid()
            setattr(self, slot, old.copy())
            # the private copy's version restarts at 0: re-stamp a valid
            # image (its bytes are unchanged), and keep a stale one from
            # ever matching the restarted counter
            self._snap = self._snapshot() if cache_ok else _STALE
        self._cow &= ~bit

    def _drop_wire(self) -> None:
        """Forget the wire image, moving the payload out of it first."""
        if self._payload is None:
            self._payload = self._wire[self._hlen:]
        self._wire = None

    def _restack(self) -> None:
        """Re-derive the lengths after a header was added or removed
        (the image is already dropped, so the payload is ``_payload``)."""
        self._hlen = hlen = self._header_len()
        self.wire_len = hlen + len(self._payload)

    @property
    def eth(self) -> Ethernet:
        if self._cow & _COW_ETH:
            self._materialise(_COW_ETH, "_eth")
        return self._eth

    @eth.setter
    def eth(self, value: Ethernet) -> None:
        self._drop_wire()
        self._eth = value
        self._cow &= ~_COW_ETH

    @property
    def vlan(self) -> Optional[Vlan]:
        if self._cow & _COW_VLAN:
            self._materialise(_COW_VLAN, "_vlan")
        return self._vlan

    @vlan.setter
    def vlan(self, value: Optional[Vlan]) -> None:
        self._drop_wire()
        self._vlan = value
        self._cow &= ~_COW_VLAN
        self._restack()

    @property
    def ip(self) -> Optional[Ipv4]:
        if self._cow & _COW_IP:
            self._materialise(_COW_IP, "_ip")
        return self._ip

    @ip.setter
    def ip(self, value: Optional[Ipv4]) -> None:
        self._drop_wire()
        self._ip = value
        self._cow &= ~_COW_IP
        self._restack()

    @property
    def l4(self) -> Optional[TransportHeader]:
        if self._cow & _COW_L4:
            self._materialise(_COW_L4, "_l4")
        return self._l4

    @l4.setter
    def l4(self, value: Optional[TransportHeader]) -> None:
        self._drop_wire()
        self._l4 = value
        self._cow &= ~_COW_L4
        self._restack()

    @property
    def payload(self) -> bytes:
        payload = self._payload
        if payload is None:  # it lives in the wire image
            return self._wire[self._hlen:]
        return payload

    @payload.setter
    def payload(self, value: bytes) -> None:
        self._payload = value
        self._wire = None
        self.wire_len = self._hlen + len(value)

    def fields(self) -> tuple:
        """Read-only view ``(eth, vlan, ip, l4)`` of the header stack.

        Unlike the header properties this never materialises CoW-shared
        headers, so it is the accessor of choice for hot read paths
        (matching, policies).  Callers must not mutate the returned
        headers — they may be shared with sibling copies, and the
        headers' own guard raises :class:`PacketError` on the attempt.
        It copies no payload: a reader of the bytes asks ``payload``.
        """
        return self._eth, self._vlan, self._ip, self._l4

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def udp(
        cls,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        src_ip: IpAddress,
        dst_ip: IpAddress,
        sport: int,
        dport: int,
        payload: bytes = b"",
        ttl: int = 64,
        ident: int = 0,
        vlan: Optional[Vlan] = None,
    ) -> "Packet":
        return cls(
            Ethernet(dst_mac, src_mac, ETH_TYPE_IPV4),
            Ipv4(src_ip, dst_ip, IP_PROTO_UDP, ttl=ttl, ident=ident),
            Udp(sport, dport),
            payload,
            vlan=vlan,
        )

    @classmethod
    def tcp(
        cls,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        src_ip: IpAddress,
        dst_ip: IpAddress,
        sport: int,
        dport: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        window: int = 65535,
        payload: bytes = b"",
        ttl: int = 64,
        ident: int = 0,
    ) -> "Packet":
        return cls(
            Ethernet(dst_mac, src_mac, ETH_TYPE_IPV4),
            Ipv4(src_ip, dst_ip, IP_PROTO_TCP, ttl=ttl, ident=ident),
            Tcp(sport, dport, seq=seq, ack=ack, flags=flags, window=window),
            payload,
        )

    @classmethod
    def icmp_echo(
        cls,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        src_ip: IpAddress,
        dst_ip: IpAddress,
        ident: int,
        seqno: int,
        reply: bool = False,
        payload: bytes = b"",
        ttl: int = 64,
        ip_ident: int = 0,
    ) -> "Packet":
        icmp_type = ICMP_ECHO_REPLY if reply else ICMP_ECHO_REQUEST
        return cls(
            Ethernet(dst_mac, src_mac, ETH_TYPE_IPV4),
            Ipv4(src_ip, dst_ip, IP_PROTO_ICMP, ttl=ttl, ident=ip_ident),
            Icmp(icmp_type, ident=ident, seqno=seqno),
            payload,
        )

    # ------------------------------------------------------------------
    # serialisation (memoised)
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple:
        """Current header versions (cache coherence stamp)."""
        vlan, ip, l4 = self._vlan, self._ip, self._l4
        return (
            self._eth._v,
            -1 if vlan is None else vlan._v,
            -1 if ip is None else ip._v,
            -1 if l4 is None else l4._v,
        )

    def _cache_valid(self) -> bool:
        if self._wire is None:
            return False
        snap = self._snap
        vlan, ip, l4 = self._vlan, self._ip, self._l4
        return (
            snap[0] == self._eth._v
            and snap[1] == (-1 if vlan is None else vlan._v)
            and snap[2] == (-1 if ip is None else ip._v)
            and snap[3] == (-1 if l4 is None else l4._v)
        )

    def wire_cache(self) -> Optional[bytes]:
        """The cached wire image, or None if absent/stale (never computes)."""
        return self._wire if self._cache_valid() else None

    def to_bytes(self) -> bytes:
        """Serialise the full frame deterministically (cached)."""
        wire = self._wire
        if wire is not None:
            # ``_cache_valid``, inline: every copy's vote key comes here
            snap = self._snap
            vlan, ip, l4 = self._vlan, self._ip, self._l4
            if (
                snap[0] == self._eth._v
                and snap[1] == (-1 if vlan is None else vlan._v)
                and snap[2] == (-1 if ip is None else ip._v)
                and snap[3] == (-1 if l4 is None else l4._v)
            ):
                return wire
        wire = self._serialise()
        self._wire = wire
        self._snap = self._snapshot()
        self._payload = None  # the new image holds it
        return wire

    def _serialise(self) -> bytes:
        """Build the wire image from scratch (no cache interaction)."""
        eth, vlan, ip, l4, payload = (
            self._eth, self._vlan, self._ip, self._l4, self._payload,
        )
        if payload is None:  # a stale image still holds it
            payload = self._wire[self._hlen:]
        if vlan is not None:
            head = (
                eth.dst.to_bytes() + eth.src.to_bytes()
                + struct.pack("!H", ETH_TYPE_VLAN) + vlan.to_bytes(eth.ethertype)
            )
        else:
            head = eth.to_bytes()
        if ip is None:
            return head + payload
        if isinstance(l4, Udp):
            # the common frame: both headers in one pack, the payload
            # checksummed where it lies
            length = UDP_HEADER_LEN + len(payload)
            total = IPV4_HEADER_LEN + length
            # derived from the buffer being built, as in Ipv4.to_bytes
            object.__setattr__(ip, "total_length", total)
            src, dst, sport, dport = ip.src, ip.dst, l4.sport, l4.dport
            fields = (0x45, ip.tos, total, ip.ident, 0, ip.ttl, ip.proto)
            return head + _IPV4_UDP(
                *fields,
                internet_checksum(_IPV4_HEAD(*fields, 0, src, dst)),
                src, dst, sport, dport, length,
                internet_checksum(
                    _UDP_PSEUDO(src, dst, IP_PROTO_UDP, length, sport, dport, length),
                    payload,
                ),
            ) + payload
        l4_bytes = b""
        if isinstance(l4, Tcp):
            l4_bytes = l4.to_bytes(ip, payload)
        elif isinstance(l4, Icmp):
            l4_bytes = l4.to_bytes(payload)
        return head + ip.to_bytes(len(l4_bytes) + len(payload)) + l4_bytes + payload

    @classmethod
    def parse(cls, data: bytes) -> "Packet":
        """Parse a frame (round-trips :meth:`to_bytes` output).

        ``data`` itself becomes the cached wire image iff it is provably
        what :meth:`_serialise` would rebuild from the parsed stack: every
        field the headers do not model holds the value the serialiser
        writes, nothing trails the frame, and the checksums verify (a
        stored 0xFFFF is the other ones-complement zero, which the
        serialiser writes for the all-zero ICMP message only; that frame
        is declined with the rest).  Any other frame is read leniently and
        re-serialises on demand, so ``parse(d).to_bytes()`` does not
        depend on whether ``d`` was kept.
        """
        size = len(data)
        if size < ETHERNET_HEADER_LEN:
            raise PacketError("truncated Ethernet header")
        # headers and addresses are built without their constructors'
        # conversions and range checks: a fixed-width wire field is in
        # range as read
        new = object.__new__
        address = int.__new__
        s = object.__setattr__
        eth = new(Ethernet)
        s(eth, "_shared", False)
        s(eth, "_v", 0)
        head = int.from_bytes(data[:ETHERNET_HEADER_LEN], "big")
        s(eth, "dst", address(MacAddress, head >> 64))
        s(eth, "src", address(MacAddress, (head >> 16) & 0xFFFFFFFFFFFF))
        s(eth, "ethertype", head & 0xFFFF)
        off = ETHERNET_HEADER_LEN
        exact = type(data) is bytes
        vlan = ip = l4 = None
        if eth.ethertype == ETH_TYPE_VLAN:
            if size < off + VLAN_TAG_LEN:
                raise PacketError("truncated VLAN tag")
            tci, eth.ethertype = _VLAN_FIELDS(data, off)
            off += VLAN_TAG_LEN
            vlan = new(Vlan)
            s(vlan, "_shared", False)
            s(vlan, "_v", 0)
            s(vlan, "vid", tci & 0x0FFF)
            s(vlan, "pcp", tci >> 13)
            exact = exact and not tci & 0x1000  # DEI is not modelled
        if eth.ethertype != ETH_TYPE_IPV4:
            payload = data[off:]
        else:
            if size < off + IPV4_HEADER_LEN:
                raise PacketError("truncated IPv4 header")
            (ver_ihl, tos, total_length, ident, frag, ttl, proto, ip_csum,
             src, dst) = _IPV4_FIELDS(data, off)
            if ver_ihl >> 4 != 4:
                raise PacketError(f"not an IPv4 packet (version={ver_ihl >> 4})")
            if internet_checksum(data[off : off + IPV4_HEADER_LEN]) != 0:
                raise PacketError("bad IPv4 header checksum")
            ip = new(Ipv4)
            s(ip, "_shared", False)
            s(ip, "src", address(IpAddress, src))
            s(ip, "dst", address(IpAddress, dst))
            s(ip, "proto", proto)
            s(ip, "ttl", ttl)
            s(ip, "ident", ident)
            s(ip, "tos", tos)
            s(ip, "total_length", total_length)
            s(ip, "_v", 1)  # where a public total_length write leaves it
            exact = (
                exact and ver_ihl == 0x45 and not frag and ip_csum != 0xFFFF
                and off + total_length == size
            )
            # the IP payload, clipped to total_length (a length below the
            # header's own size clips from the end, as slicing always did)
            stop = total_length - IPV4_HEADER_LEN
            seg = data[off + IPV4_HEADER_LEN : off + total_length if stop >= 0 else stop]
            seg_len = len(seg)
            payload = seg
            if proto == IP_PROTO_UDP:
                if seg_len < UDP_HEADER_LEN:
                    raise PacketError("truncated UDP header")
                sport, dport, length, l4_csum = _UDP_FIELDS(seg)
                if length < UDP_HEADER_LEN or length > seg_len:
                    raise PacketError(f"bad UDP length {length}")
                l4 = new(Udp)
                s(l4, "_shared", False)
                s(l4, "_v", 0)
                s(l4, "sport", sport)
                s(l4, "dport", dport)
                payload = seg[UDP_HEADER_LEN:length]
            elif proto == IP_PROTO_TCP:
                if seg_len < TCP_HEADER_LEN:
                    raise PacketError("truncated TCP header")
                (sport, dport, seq, ack, offset_byte, flags, window, l4_csum,
                 urgent) = _TCP_FIELDS(seg)
                data_offset = (offset_byte >> 4) * 4
                if data_offset < TCP_HEADER_LEN or data_offset > seg_len:
                    raise PacketError(f"bad TCP data offset {data_offset}")
                l4 = new(Tcp)
                s(l4, "_shared", False)
                s(l4, "_v", 0)
                s(l4, "sport", sport)
                s(l4, "dport", dport)
                s(l4, "seq", seq)
                s(l4, "ack", ack)
                s(l4, "flags", flags)
                s(l4, "window", window)
                payload = seg[data_offset:]
                exact = exact and offset_byte == 0x50 and not urgent
            elif proto == IP_PROTO_ICMP:
                if seg_len < ICMP_HEADER_LEN:
                    raise PacketError("truncated ICMP header")
                icmp_type, code, l4_csum, icmp_ident, seqno = _ICMP_FIELDS(seg)
                l4 = new(Icmp)
                s(l4, "_shared", False)
                s(l4, "_v", 0)
                s(l4, "icmp_type", icmp_type)
                s(l4, "code", code)
                s(l4, "ident", icmp_ident)
                s(l4, "seqno", seqno)
                payload = seg[ICMP_HEADER_LEN:]
            if exact and l4 is not None:
                # ICMP covers its segment alone, UDP and TCP a pseudo-header
                # before it; the segment is summed where it lies
                pseudo = b"" if proto == IP_PROTO_ICMP else (
                    data[off + 12 : off + IPV4_HEADER_LEN]
                    + _PSEUDO_TAIL(0, proto, seg_len)
                )
                exact = l4_csum != 0xFFFF and internet_checksum(pseudo, seg) == 0
        packet = cls(eth, ip, l4, payload, vlan=vlan)
        # bytes past a header's own length field were dropped on the way;
        # a kept frame ends in the payload, which then lives only there
        if exact and packet.wire_len == size:
            packet._wire = data
            packet._snap = packet._snapshot()
            packet._payload = None
        return packet

    def _header_len(self) -> int:
        """Bytes :meth:`_serialise` writes before the payload."""
        length = ETHERNET_HEADER_LEN
        if self._vlan is not None:
            length += VLAN_TAG_LEN
        if self._ip is not None:
            length += IPV4_HEADER_LEN
            l4 = self._l4
            if isinstance(l4, Udp):
                length += UDP_HEADER_LEN
            elif isinstance(l4, Tcp):
                length += TCP_HEADER_LEN
            elif isinstance(l4, Icmp):
                length += ICMP_HEADER_LEN
        return length

    # ------------------------------------------------------------------
    # an in-place header rewrite that keeps the wire cache coherent
    # ------------------------------------------------------------------
    def decrement_ttl(self, delta: int = 1) -> None:
        """Decrement the IPv4 TTL, patching the cached wire image in place.

        When the cache is valid this costs a TTL byte rewrite plus an
        RFC 1624 incremental checksum update instead of a full
        re-serialisation; the result is bit-identical either way.  The
        payload span moves into the new image with the rest of the frame.
        """
        if self._ip is None:
            raise PacketError("decrement_ttl on a packet without an IPv4 header")
        cache_ok = self._cache_valid()
        wire = self._wire
        ip = self.ip  # materialises a private header if CoW-shared
        new_ttl = ip.ttl - delta
        if not 0 <= new_ttl <= 255:
            raise PacketError(f"TTL out of range after decrement: {new_ttl}")
        ip.ttl = new_ttl
        if not cache_ok:
            return
        off = ETHERNET_HEADER_LEN + (VLAN_TAG_LEN if self._vlan is not None else 0)
        ttl_off = off + 8
        csum_off = off + 10
        old_word = (wire[ttl_off] << 8) | wire[ttl_off + 1]
        new_word = (new_ttl << 8) | wire[ttl_off + 1]
        old_sum = (wire[csum_off] << 8) | wire[csum_off + 1]
        new_sum = incremental_checksum_update(old_sum, old_word, new_word)
        self._wire = b"".join((
            wire[:ttl_off],
            bytes((new_ttl,)),
            wire[ttl_off + 1 : csum_off],
            new_sum.to_bytes(2, "big"),
            wire[csum_off + 2 :],
        ))
        self._snap = self._snapshot()

    # ------------------------------------------------------------------
    # duplication / identity
    # ------------------------------------------------------------------
    def copy(self) -> "Packet":
        """Copy-on-write duplicate — what a hub emits on each branch.

        Headers and payload are shared with the original and marked
        shared; the first mutating access on either side (through the
        packet's header properties) materialises a private header copy.
        The wire image is shared too, so a k-way fan-out serialises — and
        the compare element vote-keys — the frame once; a stale one is
        shared as the place the payload lives.
        """
        new = Packet.__new__(Packet)
        eth, vlan, ip, l4 = self._eth, self._vlan, self._ip, self._l4
        cow = _COW_ETH
        if vlan is not None:
            cow |= _COW_VLAN
        if ip is not None:
            cow |= _COW_IP
        if l4 is not None:
            cow |= _COW_L4
        if self._cow != cow:
            # a header whose bit is set is marked already: only the first
            # copy since a header was replaced has any marking to do
            hset = object.__setattr__
            hset(eth, "_shared", True)
            if vlan is not None:
                hset(vlan, "_shared", True)
            if ip is not None:
                hset(ip, "_shared", True)
            if l4 is not None:
                hset(l4, "_shared", True)
            self._cow = cow
        new._eth = eth
        new._vlan = vlan
        new._ip = ip
        new._l4 = l4
        new._payload = self._payload
        new._hlen = self._hlen
        new.wire_len = self.wire_len
        new.meta = None
        new.trace_id = self.trace_id
        new._cow = cow
        # the snapshot is judged against the same (shared) headers on both
        # sides: a stale image stays stale, since only a materialisation
        # can restart a version and it stamps a stale image _STALE
        new._wire = self._wire
        new._snap = self._snap
        return new

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Packet):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:
        return hash(self.to_bytes())

    def summary(self) -> str:
        """Short human-readable description (tcpdump-ish one-liner)."""
        eth, vlan, ip, l4 = self.fields()
        parts = [f"{eth.src}>{eth.dst}"]
        if vlan is not None:
            parts.append(f"vlan{vlan.vid}")
        if ip is not None:
            parts.append(f"{ip.src}>{ip.dst}")
        if l4 is not None:
            parts.append(repr(l4))
        parts.append(f"{self.wire_len}B")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Packet({self.summary()})"
