"""Transport interface: sessions moving wire images plus metadata.

The model follows pycyphal's transport layer: a :class:`Transport` is a
factory and registry of :class:`Session` objects and a session is one
directed stream of messages for one *role* at one *scope*, counting what
it sends and what it is handed.

Roles (``SessionSpec.role``):

``fanout``
    trusted endpoint → one untrusted branch (the hub direction);
``collect``
    collecting endpoint → compare; messages carry ``branch`` (which
    untrusted router produced the copy) and ``claim`` (the egress port
    the copy's arrival link stands for, shielded-router wiring);
``release``
    compare → endpoint; messages carry ``claim`` only.

Plain forwarding is no role: a router, a virtual edge and an endpoint's
external output send on their port, and the link direction the frame
crosses counts it (:class:`~repro.net.node.LinkStats`).

The send contract is *ownership transfer*: ``send(packet, ...)`` takes
the packet object and the caller must not mutate it afterwards.  The DES
backend moves the object itself (so records stay bit-identical with the
pre-transport code, which handed freshly copied packets to ports); the
UDP backend serialises it.  Receive callbacks get ``(packet, meta)``
where ``meta`` is a dict with whatever of ``branch``/``claim``/``seq``
the wire carried.

Ownership is only a promise between honest elements: an untrusted router
may keep a packet it forwarded and send it again, altered or not.  So
plain forwarding moves packets without copying, but three copies at the
trust boundary stay, each so that nothing the trusted side decides rides
an object an untrusted element still holds:

* **hub** (``fanout``): every branch gets a private object, so what one
  router does to its copy never reaches another branch's vote;
* **collect**: the branch tag goes on a copy made by the trusted
  endpoint — the vote book stores that copy, never the object the branch
  delivered;
* **release**: the claim rides a copy, so the packet the vote book holds
  is never re-tagged after its vote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs.metrics import StatBlock

ROLE_FANOUT = "fanout"
ROLE_COLLECT = "collect"
ROLE_RELEASE = "release"

_ROLES = (ROLE_FANOUT, ROLE_COLLECT, ROLE_RELEASE)

#: receiver callback: fn(packet, meta)
Receiver = Callable[[object, dict], None]


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


class SessionStats(StatBlock):
    """Per-session message counters."""

    __slots__ = ("tx_messages", "rx_messages")


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
        OpenFlow control channel) so :meth:`stats` covers it too."""
        self.sessions[session.spec] = session
        return session

    def _forget(self, spec: SessionSpec) -> None:
        self.sessions.pop(spec, None)

    def close(self) -> None:
        for session in list(self.sessions.values()):
            session.close()
        self.sessions.clear()

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
