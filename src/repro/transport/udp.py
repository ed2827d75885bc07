"""Real-time asyncio UDP transport: the combiner over actual sockets.

One :class:`UdpTransport` owns one non-blocking datagram socket,
registered with the event loop as a reader.  Outbound sessions carry a
``remote`` address; inbound dispatch matches a decoded
:class:`~repro.transport.wire.WireMessage` to the open session with the
same ``(role, scope, branch)``, falling back to ``(role, scope)`` — so a
compare process opens *one* collect session per scope and receives every
branch's copies through it, branch identity riding in the message.

Receive path: each reader wakeup drains up to :data:`RX_BURST` datagrams
(the loop runs timers and other sockets between wakeups, so the burst is
the longest a due timer waits behind a busy socket).  A payload becomes a
:class:`~repro.transport.wire.WireFrame`: the ``bytes`` that arrived,
validated and read-only, with no packet model behind them.  The compare's
bit-exact policy keys on that buffer itself — a copy votes as the bytes
it arrived with, as the paper's ``memcmp`` does — and a forwarding
process re-sends it as it came.  A frame cannot be rewritten, so the k
copies of a frame share nothing and need no copy: each costs one header
walk, and a tampered copy differs in bytes and is outvoted.
What is *not* preserved over UDP is DES timing exactness:
arrival times are wall-clock, so anything counted in packets (quorums,
miss thresholds, probation credits) is comparable across backends while
latency histograms are not — see DESIGN.md §14.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.net.layout import PacketError
from repro.obs.metrics import StatBlock
from repro.transport.base import (
    ROLE_COLLECT,
    Session,
    SessionSpec,
    Transport,
    TransportError,
)
from repro.transport.wire import (
    MESSAGE_FIELDS,
    MSG_BYE,
    MSG_DATA,
    MSG_HELLO,
    WireFrame,
    decode_message,
    encode_message,
    message_parts,
    out_of_range,
)

Address = Tuple[str, int]
#: control callback: fn(mtype, scope, branch, addr)
ControlHandler = Callable[[int, str, Optional[int], Address], None]

#: datagrams handled per reader wakeup before the loop gets to run its
#: timers (the voter's sweep) and other sockets again
RX_BURST = 64
#: datagrams queued behind a socket that answers EAGAIN; past this the
#: newest is dropped (about 1.5 MB of full-size frames)
TX_BACKLOG_FRAMES = 1024
#: memoised routes; a scope-wide session matches any branch the wire
#: names, so the memo is emptied when it gets here
ROUTE_MEMO_ENTRIES = 256
#: no UDP datagram is longer
_MAX_DATAGRAM = 65536

_pack_fields = MESSAGE_FIELDS.pack


class UdpSession(Session):
    """One directed message stream over the owning socket."""

    def __init__(
        self,
        transport: "UdpTransport",
        spec: SessionSpec,
        remote: Optional[Address] = None,
    ) -> None:
        super().__init__(transport, spec)
        self.remote = remote
        self._seq = 0
        self._lead, self._scope_field = message_parts(MSG_DATA, spec.role, spec.scope)

    def send(
        self,
        packet: object,
        branch: Optional[int] = None,
        claim: Optional[int] = None,
    ) -> None:
        if branch is None:
            branch = self.spec.branch
        seq = self._seq
        self._seq = seq + 1
        self.stats.tx_messages += 1
        try:
            fields = _pack_fields(
                -1 if branch is None else branch,
                -1 if claim is None else claim,
                seq & 0xFFFFFFFF,
                0,
            )
        except struct.error:
            raise out_of_range(branch, claim) from None
        self.transport._sendto(
            self._lead + fields + self._scope_field + packet.to_bytes(), self.remote
        )


class UdpTransport(Transport):
    """One socket, many sessions; see module docstring.

    ``rx_errors`` counts datagrams that did not decode or carried no
    valid frame, and errors the socket reported; ``rx_unmatched`` data
    for no open session; ``rx_handler_errors`` exceptions raised by a
    receiver or control callback (reported to the loop's exception
    handler — the drain goes on with the next datagram).  ``tx_dropped``
    counts datagrams refused by a full send backlog.  What each session
    was handed is its own ``rx_messages``.
    """

    def __init__(
        self,
        local: Address = ("127.0.0.1", 0),
        name: str = "udp",
    ) -> None:
        super().__init__(name)
        self.local = local
        self.rx_errors = 0
        self.rx_unmatched = 0
        self.rx_handler_errors = 0
        self.tx_dropped = 0
        StatBlock.publish_samples(
            lambda: {
                f"transport_{field}_total": count
                for field, count in self.rx_counts().items()
            },
            transport=name,
        )
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: datagrams the socket would not take yet, in send order
        self._backlog: Deque[Tuple[bytes, Address]] = deque()
        #: (scope, role, branch) as decoded -> the session it matched
        self._routes: Dict[tuple, Session] = {}
        self._control: Optional[ControlHandler] = None

    def rx_counts(self) -> Dict[str, int]:
        """The transport's own counts (see the class docstring)."""
        return {
            "rx_errors": self.rx_errors,
            "rx_unmatched": self.rx_unmatched,
            "rx_handler_errors": self.rx_handler_errors,
            "tx_dropped": self.tx_dropped,
        }

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> Address:
        """Bind the socket; returns the actual local address."""
        if self._sock is not None:
            return self.local_address()
        loop = asyncio.get_running_loop()
        host, port = self.local
        family, kind, proto, _, address = (
            await loop.getaddrinfo(host, port, type=socket.SOCK_DGRAM)
        )[0]
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.bind(address)
        except OSError:
            sock.close()
            raise
        self._sock, self._loop = sock, loop
        loop.add_reader(sock, self._on_readable)
        return self.local_address()

    def local_address(self) -> Address:
        if self._sock is None:
            raise TransportError(f"transport {self.name!r} is not started")
        name = self._sock.getsockname()
        return (name[0], name[1])

    def close(self) -> None:
        """Close sessions and socket; a backlog not yet sent is dropped."""
        super().close()
        sock = self._sock
        if sock is not None:
            self._sock = None
            self._loop.remove_reader(sock)
            self._loop.remove_writer(sock)
            self._backlog.clear()
            sock.close()

    # -- sessions -------------------------------------------------------
    def _make_session(self, spec: SessionSpec, **options: object) -> UdpSession:
        self._routes.clear()  # a new exact session outranks a memoised fallback
        remote = options.get("remote")
        return UdpSession(self, spec, remote=remote)  # type: ignore[arg-type]

    def adopt(self, session: Session) -> Session:
        self._routes.clear()
        return super().adopt(session)

    def _forget(self, spec: SessionSpec) -> None:
        self._routes.clear()
        super()._forget(spec)

    # -- control messages (HELLO/BYE lifecycle) -------------------------
    def set_control_handler(self, fn: Optional[ControlHandler]) -> None:
        self._control = fn

    def send_control(
        self,
        mtype: int,
        scope: str,
        branch: Optional[int] = None,
        remote: Optional[Address] = None,
    ) -> None:
        if mtype not in (MSG_HELLO, MSG_BYE):
            raise TransportError(f"not a control message type: {mtype}")
        data = encode_message(mtype, ROLE_COLLECT, scope, branch=branch)
        self._sendto(data, remote)

    # -- datapath: send -------------------------------------------------
    def _sendto(self, data: bytes, remote: Optional[Address]) -> None:
        sock = self._sock
        if sock is None:
            raise TransportError(f"transport {self.name!r} is not started")
        if remote is None:
            raise TransportError("session has no remote address")
        if not self._backlog:
            try:
                sock.sendto(data, remote)
                return
            except BlockingIOError:
                self._loop.add_writer(sock, self._flush_backlog)
            except OSError:
                self.rx_errors += 1
                return
        if len(self._backlog) >= TX_BACKLOG_FRAMES:
            self.tx_dropped += 1
            return
        self._backlog.append((data, remote))

    def _flush_backlog(self) -> None:
        """Writer callback: send what queued behind a full socket, in order."""
        sock, backlog = self._sock, self._backlog
        while backlog:
            try:
                sock.sendto(*backlog[0])
            except BlockingIOError:
                return
            except OSError:
                self.rx_errors += 1
            backlog.popleft()
        self._loop.remove_writer(sock)

    # -- datapath: receive ----------------------------------------------
    def _on_readable(self) -> None:
        """Reader callback: hand on up to ``RX_BURST`` queued datagrams."""
        sock = self._sock
        for _ in range(RX_BURST):
            try:
                data, addr = sock.recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:
                return
            except OSError:
                self.rx_errors += 1
                return
            try:
                self._on_datagram(data, addr)
            except Exception as exc:
                # a receiver or control callback raised: theirs to fix,
                # not a reason to strand the datagrams queued behind it
                self.rx_handler_errors += 1
                self._loop.call_exception_handler({
                    "message": f"transport {self.name!r}: receive callback failed",
                    "exception": exc,
                })
            if self._sock is not sock:  # a callback closed the transport
                return

    def _on_datagram(self, data: bytes, addr: Address) -> None:
        try:
            message = decode_message(data)
        except TransportError:
            self.rx_errors += 1
            return
        if message.mtype != MSG_DATA:
            if self._control is not None:
                self._control(message.mtype, message.scope, message.branch, addr)
            return
        route = (message.scope, message.role, message.branch)
        session = self._routes.get(route)
        if session is None:
            session = self._match(*route)
            if session is None:
                self.rx_unmatched += 1
                return
            if len(self._routes) >= ROUTE_MEMO_ENTRIES:
                self._routes.clear()
            self._routes[route] = session
        try:
            frame = WireFrame(message.payload)
        except PacketError:
            self.rx_errors += 1
            return
        session.deliver(
            frame,
            {"branch": message.branch, "claim": message.claim, "seq": message.seq},
        )

    def _match(
        self, scope: str, role: str, branch: Optional[int]
    ) -> Optional[Session]:
        """Exact ``(scope, role, branch)`` session, else the scope's."""
        sessions = self.sessions
        return sessions.get(SessionSpec(scope, role, branch)) or sessions.get(
            SessionSpec(scope, role)
        )
