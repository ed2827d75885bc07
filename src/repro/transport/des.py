"""The discrete-event transport backend: sessions over DES ports.

A :class:`DesSession` wraps one :class:`~repro.net.node.Port`: ``send``
counts the message, frames the role's metadata and hands the packet to
the port's ``send``, bound when the session is built.  That is exactly
what the pre-transport code did at each call site, so every record, span
and metric of a DES run is bit-identical to that tree
(``tests/test_transport_layer.py`` pins this against
``benchmarks/transport_baseline.json``):

* ``fanout`` sessions transmit the packet object as handed in, which is
  the caller's to give: the hub hands each branch a CoW copy of its own;
* ``collect`` sessions attach the branch tag the compare host reads, on
  a copy, never on the object handed in — the DES wire format for collect
  metadata is the packet's ``meta`` dict, unchanged:
  ``{"branch": b, "endpoint": scope, "claim": c}``;
* ``release`` sessions copy and carry the claim back:
  ``{"claim": c}``.

``transport/base.py`` says why the hub, collect and release copies stay.

Reception stays on the DES delivery path (links schedule
``node.receive``); the receiving node counts each inbound message on its
own session's ``rx_messages`` (the compare host's collect, the
endpoint's release), so the counters see both directions.  The packet-train batch tier rides *below* this
interface (shared-batch port sends), which is fine: batches never cross
a vote boundary, and the batch fast paths are DES-only by construction.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.transport.base import (
    ROLE_COLLECT,
    ROLE_RELEASE,
    Session,
    SessionSpec,
    Transport,
    TransportError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Port
    from repro.sim.engine import Simulator


class DesSession(Session):
    """One port-backed ``fanout`` session: the packet object goes to the
    port as handed in.  The role's framing is fixed when the
    session is built (:meth:`DesTransport._make_session` picks the class),
    so a send tests nothing."""

    def __init__(self, transport: "DesTransport", spec: SessionSpec, port: "Port") -> None:
        super().__init__(transport, spec)
        self.port = port
        self._port_send = port.send

    def send(
        self,
        packet: object,
        branch: Optional[int] = None,
        claim: Optional[int] = None,
    ) -> None:
        self.stats.tx_messages += 1
        self._port_send(packet)


class DesCollectSession(DesSession):
    """``collect``: a tagged copy carries ``{"branch", "endpoint", "claim"}``."""

    def send(
        self,
        packet: object,
        branch: Optional[int] = None,
        claim: Optional[int] = None,
    ) -> None:
        self.stats.tx_messages += 1
        spec = self.spec
        tagged = packet.copy()
        tagged.meta = {
            "branch": spec.branch if branch is None else branch,
            "endpoint": spec.scope,
            "claim": claim,
        }
        self._port_send(tagged)


class DesReleaseSession(DesSession):
    """``release``: a copy carries the claim back, ``{"claim": c}``; with
    no ``claim`` given, the one the packet's collect tag carries."""

    def send(
        self,
        packet: object,
        branch: Optional[int] = None,
        claim: Optional[int] = None,
    ) -> None:
        self.stats.tx_messages += 1
        if claim is None:
            # the compare's release hook (``CompareContext.release``) hands
            # over the voted copy alone: its collect tag holds the claim
            claim = (packet.meta or {}).get("claim")
        dup = packet.copy()
        dup.meta = {"claim": claim}
        self._port_send(dup)


_SESSION_BY_ROLE = {ROLE_COLLECT: DesCollectSession, ROLE_RELEASE: DesReleaseSession}


class DesTransport(Transport):
    """Session factory over an existing DES network's ports.

    Sessions reach the simulator through their port, so ``sim`` only
    says which run the transport belongs to; nothing here reads it.
    """

    def __init__(self, sim: "Simulator", name: str = "des") -> None:
        super().__init__(name)

    def attach(self, spec: SessionSpec, port: "Port") -> DesSession:
        """Bind ``spec`` to a port (wiring-time helper for builders)."""
        return self.session(spec, port=port)  # type: ignore[return-value]

    def _make_session(self, spec: SessionSpec, **options: object) -> DesSession:
        port = options.get("port")
        if port is None:
            raise TransportError(
                f"DES session {spec} needs a port= at first open"
            )
        session_class = _SESSION_BY_ROLE.get(spec.role, DesSession)
        return session_class(self, spec, port)  # type: ignore[arg-type]
