"""The discrete-event transport backend: sessions over DES ports.

A :class:`DesSession` wraps one :class:`~repro.net.node.Port`: ``send``
counts the message, frames the role's metadata and hands the packet to
the port.  That is exactly what the pre-transport code did at each call
site, so every record, span and metric of a DES run is bit-identical to
that tree (``tests/test_transport_layer.py`` pins this against
``benchmarks/transport_baseline.json``):

* ``fanout``/``egress`` sessions transmit the packet object as handed in
  (the caller prepares the copy, exactly as the old ``port.send(copy)``
  call sites did);
* ``collect`` sessions attach the branch tag the compare host reads —
  the DES wire format for collect metadata is the packet's ``meta``
  dict, unchanged: ``{"branch": b, "endpoint": scope, "claim": c}``;
* ``release`` sessions copy and carry the claim back:
  ``{"claim": c}``.

Reception stays on the DES delivery path (links schedule
``node.receive``); nodes route inbound packets into
:meth:`~repro.transport.base.Session.deliver` so the counters see both
directions.  The packet-train batch tier rides *below* this
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
    from repro.sim import Simulator


def collect_meta(scope: str, branch: int, claim: Optional[int]) -> dict:
    """The DES collect-side wire format (a tagged packet's ``meta``)."""
    return {"branch": branch, "endpoint": scope, "claim": claim}


def read_collect_meta(packet) -> dict:
    """Decode the collect metadata off a DES-delivered packet."""
    return packet.meta or {}


class DesSession(Session):
    """One port-backed session (see module docstring for role framing)."""

    def __init__(self, transport: "DesTransport", spec: SessionSpec, port: "Port") -> None:
        super().__init__(transport, spec)
        self.port = port
        self._is_collect = spec.role == ROLE_COLLECT
        self._is_release = spec.role == ROLE_RELEASE

    def send(
        self,
        packet: object,
        branch: Optional[int] = None,
        claim: Optional[int] = None,
    ) -> None:
        self.stats.tx_messages += 1
        if self._is_collect:
            if branch is None:
                branch = self.spec.branch
            tagged = packet.copy()
            tagged.meta = collect_meta(self.spec.scope, branch, claim)
            packet = tagged
        elif self._is_release:
            dup = packet.copy()
            dup.meta = {"claim": claim}
            packet = dup
        self.port.send(packet)


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
        return DesSession(self, spec, port)  # type: ignore[arg-type]
