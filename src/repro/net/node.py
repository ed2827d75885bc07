"""Base node and port abstractions.

A :class:`Node` is anything attached to the network: a host, an OpenFlow
switch, a trusted hub, or the compare server.  Nodes own numbered
:class:`Port` objects; links connect ports pairwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.sim import Simulator, TraceBus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link
    from repro.net.packet import Packet


class NetworkError(Exception):
    """Raised on invalid wiring or node configuration."""


class Port:
    """A numbered attachment point on a node."""

    __slots__ = ("node", "port_no", "link", "rx_packets", "rx_bytes", "tx_packets",
                 "tx_bytes", "taps", "blocked_until", "_egress_dir", "_egress_to")

    def __init__(self, node: "Node", port_no: int) -> None:
        self.node = node
        self.port_no = port_no
        self.link: Optional["Link"] = None
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        # tcpdump-style observers: called on every received packet.
        self.taps: List[Callable[["Packet"], None]] = []
        # A port may be administratively blocked (compare DoS mitigation).
        self.blocked_until: float = 0.0
        # The link direction this port transmits into and the far-end
        # port, handed over by the link when it wires the port.
        self._egress_dir = None
        self._egress_to: Optional["Port"] = None

    @property
    def full_name(self) -> str:
        return f"{self.node.name}.p{self.port_no}"

    def attach_link(self, link: "Link", egress_dir, egress_to: "Port") -> None:
        if self.link is not None:
            raise NetworkError(f"port {self.full_name} already wired")
        self.link = link
        self._egress_dir = egress_dir
        self._egress_to = egress_to

    @property
    def is_wired(self) -> bool:
        return self.link is not None

    @property
    def peer(self) -> Optional["Port"]:
        """The port at the other end of the attached link, if wired."""
        if self.link is None:
            return None
        return self.link.peer_of(self)

    def send(self, packet: "Packet") -> None:
        """Transmit a packet out of this port (drops if unwired/blocked)."""
        if self.link is None:
            return
        now = self.node.sim._now
        if now < self.blocked_until:
            self.node.trace("port.blocked_drop", port=self.port_no, packet=packet)
            return
        self.tx_packets += 1
        self.tx_bytes += packet.wire_len
        if packet.trace_id is not None:
            self._span(packet, "span.send", now)
        self._egress_dir.transmit(packet, self._egress_to)

    def send_batch_packet(self, batch, i: int, now: float) -> None:
        """:meth:`send` for one packet of a train at virtual time ``now``.

        Train packets are never trace-marked (marked packets split out of
        the train at emission), so the span branch is omitted.
        """
        if self.link is None:
            return
        if now < self.blocked_until:
            self.node.trace(
                "port.blocked_drop", port=self.port_no, packet=batch.packet_at(i)
            )
            return
        self.tx_packets += 1
        self.tx_bytes += batch.wire_len
        self._egress_dir.ingress_batch_packet(batch, i, now, self._egress_to)

    def deliver_batch_packet(self, batch, i: int, now: float) -> None:
        """:meth:`deliver` for one packet of a train at time ``now``."""
        self.rx_packets += 1
        self.rx_bytes += batch.wire_len
        if self.taps:
            pkt = batch.packet_at(i)
            for tap in self.taps:
                tap(pkt)
        if now < self.blocked_until:
            self.node.trace(
                "port.blocked_drop", port=self.port_no, packet=batch.packet_at(i)
            )
            return
        self.node.receive_batch_packet(batch, i, self)

    def deliver(self, packet: "Packet") -> None:
        """Called by the link when a packet arrives at this port."""
        self.rx_packets += 1
        self.rx_bytes += packet.wire_len
        for tap in self.taps:
            tap(packet)
        now = self.node.sim._now
        # The span hop mirrors tcpdump-tap semantics exactly: it fires on
        # every delivery, before the administrative port block is applied
        # (taps above see blocked arrivals too).
        if packet.trace_id is not None:
            self._span(packet, "span.hop", now)
        if now < self.blocked_until:
            self.node.trace("port.blocked_drop", port=self.port_no, packet=packet)
            return
        self.node.receive(packet, self)

    def _span(self, packet: "Packet", topic: str, now: float) -> None:
        """Emit one per-hop span record for a trace-marked packet."""
        bus = self.node.trace_bus
        if bus is None:
            return
        bus.emit(
            now,
            topic,
            self.node.name,
            trace=packet.trace_id,
            port=self.port_no,
            kind=type(packet.fields()[3]).__name__,
        )

    def block_for(self, duration: float) -> None:
        """Administratively block this port for ``duration`` seconds."""
        self.blocked_until = max(self.blocked_until, self.node.sim.now + duration)

    def __repr__(self) -> str:
        wired = "wired" if self.is_wired else "unwired"
        return f"Port({self.full_name}, {wired})"


class Node:
    """Base class for all network elements."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace_bus: Optional[TraceBus] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.trace_bus = trace_bus
        self.ports: Dict[int, Port] = {}

    def add_port(self, port_no: Optional[int] = None) -> Port:
        """Create a new port; auto-numbers from 1 when not specified."""
        if port_no is None:
            port_no = max(self.ports, default=0) + 1
        if port_no in self.ports:
            raise NetworkError(f"{self.name} already has port {port_no}")
        port = Port(self, port_no)
        self.ports[port_no] = port
        return port

    def port(self, port_no: int) -> Port:
        try:
            return self.ports[port_no]
        except KeyError:
            raise NetworkError(f"{self.name} has no port {port_no}") from None

    def receive(self, packet: "Packet", in_port: Port) -> None:
        """Handle a packet arriving on ``in_port``.  Subclasses override."""
        raise NotImplementedError

    def receive_batch_packet(self, batch, i: int, in_port: Port) -> None:
        """Handle one packet of a train arriving on ``in_port``.

        The default materialises the packet and calls :meth:`receive` —
        with the simulator clock patched to the packet's virtual time
        this is exact, just slower.  Batch-aware elements override it.
        """
        self.sim.realm.note_fallback("mixed-headers")
        self.receive(batch.packet_at(i), in_port)

    def trace(self, topic: str, **data: object) -> None:
        if self.trace_bus is not None:
            self.trace_bus.emit(self.sim.now, topic, self.name, **data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, ports={sorted(self.ports)})"
