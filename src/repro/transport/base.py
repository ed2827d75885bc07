"""Transport interface: sessions moving wire images plus metadata.

The model follows pycyphal's transport layer: a :class:`Transport` is a
factory and registry of :class:`Session` objects, a session is one
directed stream of messages for one *role* at one *scope*, and tracer
hooks observe every message crossing any session of a transport.

Roles (``SessionSpec.role``):

``fanout``
    trusted endpoint → one untrusted branch (the hub direction);
``collect``
    collecting endpoint → compare; messages carry ``branch`` (which
    untrusted router produced the copy) and ``claim`` (the egress port
    the copy's arrival link stands for, shielded-router wiring);
``release``
    compare → endpoint; messages carry ``claim`` only;
``egress``
    plain forwarding between neighbours (switch/hub output).

The send contract is *ownership transfer*: ``send(packet, ...)`` takes
the packet object and the caller must not mutate it afterwards.  The DES
backend moves the object itself (so records stay bit-identical with the
pre-transport code, which handed freshly copied packets to ports); the
UDP backend serialises it.  Receive callbacks get ``(packet, meta)``
where ``meta`` is a dict with whatever of ``branch``/``claim``/``seq``
the wire carried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import StatBlock

ROLE_FANOUT = "fanout"
ROLE_COLLECT = "collect"
ROLE_RELEASE = "release"
ROLE_EGRESS = "egress"

_ROLES = (ROLE_FANOUT, ROLE_COLLECT, ROLE_RELEASE, ROLE_EGRESS)

#: receiver callback: fn(packet, meta)
Receiver = Callable[[object, dict], None]
#: tracer callback: fn(TransportTrace)
Tracer = Callable[["TransportTrace"], None]


class TransportError(Exception):
    """Misconfigured or misused transport."""


@dataclass(frozen=True)
class SessionSpec:
    """Identity of one session: vote scope, direction role, branch."""

    scope: str
    role: str
    branch: Optional[int] = None

    @property
    def key(self) -> str:
        """``role:scope[:branch]``: the stats-rollup key and metric label."""
        return f"{self.role}:{self.scope}" + (
            f":{self.branch}" if self.branch is not None else ""
        )

    def validate(self) -> None:
        if self.role not in _ROLES:
            raise TransportError(
                f"unknown session role {self.role!r} (known: {_ROLES})"
            )
        if not self.scope:
            raise TransportError("session scope must be non-empty")


@dataclass(frozen=True)
class TransportTrace:
    """One message observed by a transport tracer hook."""

    direction: str  # "tx" | "rx"
    transport: str
    spec: SessionSpec
    packet: object
    branch: Optional[int] = None
    claim: Optional[int] = None
    seq: Optional[int] = None


class SessionStats(StatBlock):
    """Per-session message counters."""

    __slots__ = ("tx_messages", "rx_messages", "drops")


class Session:
    """One directed message stream (see module docstring for roles)."""

    def __init__(self, transport: "Transport", spec: SessionSpec) -> None:
        spec.validate()
        self.transport = transport
        self.spec = spec
        self.stats = SessionStats().publish(
            "transport_session", transport=transport.name, session=spec.key
        )
        self._receiver: Optional[Receiver] = None

    # -- sending --------------------------------------------------------
    def send(
        self,
        packet: object,
        branch: Optional[int] = None,
        claim: Optional[int] = None,
    ) -> None:
        raise NotImplementedError

    # -- receiving ------------------------------------------------------
    def set_receiver(self, fn: Optional[Receiver]) -> None:
        self._receiver = fn

    def deliver(self, packet: object, meta: dict) -> None:
        """Called by the owning transport when a message arrives."""
        self.stats.rx_messages += 1
        if self.transport._tracers:
            self.transport._trace("rx", self.spec, packet, meta)
        if self._receiver is not None:
            self._receiver(packet, meta)

    def close(self) -> None:
        self._receiver = None
        self.transport._forget(self.spec)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec})"


class Transport:
    """Factory and registry of sessions over one byte-moving medium."""

    def __init__(self, name: str = "transport") -> None:
        self.name = name
        self.sessions: Dict[SessionSpec, Session] = {}
        self._tracers: List[Tracer] = []

    # -- session management --------------------------------------------
    def session(self, spec: SessionSpec, **options: object) -> Session:
        """Return the session for ``spec``, creating it on first use."""
        existing = self.sessions.get(spec)
        if existing is not None:
            return existing
        session = self._make_session(spec, **options)
        self.sessions[spec] = session
        return session

    def _make_session(self, spec: SessionSpec, **options: object) -> Session:
        raise NotImplementedError

    def adopt(self, session: "Session") -> "Session":
        """Register an externally built session (custom media, e.g. the
        OpenFlow control channel) so tracers and stats cover it too."""
        self.sessions[session.spec] = session
        return session

    def _forget(self, spec: SessionSpec) -> None:
        self.sessions.pop(spec, None)

    def close(self) -> None:
        for session in list(self.sessions.values()):
            session.close()
        self.sessions.clear()

    # -- tracer hooks ---------------------------------------------------
    def add_tracer(self, fn: Tracer) -> None:
        """Observe every message crossing any session of this transport."""
        self._tracers.append(fn)

    def remove_tracer(self, fn: Tracer) -> None:
        if fn in self._tracers:
            self._tracers.remove(fn)

    def _trace(
        self, direction: str, spec: SessionSpec, packet: object, meta: dict
    ) -> None:
        record = TransportTrace(
            direction=direction,
            transport=self.name,
            spec=spec,
            packet=packet,
            branch=meta.get("branch"),
            claim=meta.get("claim"),
            seq=meta.get("seq"),
        )
        for fn in self._tracers:
            fn(record)

    # -- stats ----------------------------------------------------------
    def stats(self) -> dict:
        """Roll-up of per-session counters, keyed by spec string."""
        return {
            spec.key: session.stats.as_dict()
            for spec, session in sorted(
                self.sessions.items(),
                key=lambda kv: (
                    kv[0].role,
                    kv[0].scope,
                    -1 if kv[0].branch is None else kv[0].branch,
                ),
            )
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, sessions={len(self.sessions)})"


# ----------------------------------------------------------------------
# loopback (tests and redundant-fusion unit checks)
# ----------------------------------------------------------------------
class _LoopbackSession(Session):
    def send(
        self,
        packet: object,
        branch: Optional[int] = None,
        claim: Optional[int] = None,
    ) -> None:
        self.stats.tx_messages += 1
        transport: "LoopbackTransport" = self.transport  # type: ignore[assignment]
        seq = transport._next_seq()
        if branch is None:
            branch = self.spec.branch
        meta = {"branch": branch, "claim": claim, "seq": seq}
        if transport._tracers:
            transport._trace("tx", self.spec, packet, meta)
        peer = transport.peer
        if peer is None:
            self.stats.drops += 1
            return
        remote = peer.sessions.get(self.spec)
        if remote is None:
            self.stats.drops += 1
            return
        remote.deliver(packet, meta)


class LoopbackTransport(Transport):
    """Two linked in-process transports: A's session delivers to B's
    session of the same spec, synchronously.  For tests."""

    def __init__(self, name: str = "loopback") -> None:
        super().__init__(name)
        self.peer: Optional["LoopbackTransport"] = None
        self._seq = 0

    @classmethod
    def pair(cls, name: str = "loopback") -> Tuple["LoopbackTransport", "LoopbackTransport"]:
        a, b = cls(f"{name}.a"), cls(f"{name}.b")
        a.peer, b.peer = b, a
        return a, b

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _make_session(self, spec: SessionSpec, **options: object) -> Session:
        return _LoopbackSession(self, spec)
