"""Base node and port abstractions.

A :class:`Node` is anything attached to the network: a host, an OpenFlow
switch, a trusted hub, or the compare server.  Nodes own numbered
:class:`Port` objects; links connect ports pairwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.obs.metrics import StatBlock, bind_histogram
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link
    from repro.net.packet import Packet


class LinkStats(StatBlock):
    """Per-direction link counters (kept by the transmitting port)."""

    __slots__ = (
        "tx_packets",
        "tx_bytes",
        "delivered_packets",
        "delivered_bytes",
        "queue_drops",
        "loss_drops",
        "fault_drops",
    )


class NetworkError(Exception):
    """Raised on invalid wiring or node configuration."""


class Port:
    """A numbered attachment point on a node.

    A wired port owns the direction of its link that it transmits into:
    a single-server FIFO transmitter with a bounded drop-tail queue.
    :meth:`send` admits a frame, books its serialisation, draws its loss
    and posts its arrival; the arrival event, :meth:`_arrive`, counts the
    delivery on the direction and on the far port and hands the frame to
    the far node.  A hop is those two frames.  :class:`~repro.net.link.Link`
    wires the two ports and is the duplex handle for faults, loss models
    and rate changes.
    """

    __slots__ = (
        "node", "port_no", "link", "peer", "rx_packets", "rx_bytes",
        "tx_packets", "tx_bytes", "taps", "blocked_until", "blocked_drops",
        # the egress direction of the attached link
        "wire_name", "wire_stats", "_rate_bps", "_delay", "_loss",
        "_loss_model", "_queue_capacity", "_busy_until", "_queued",
        "_h_queue_delay",
    )

    def __init__(self, node: "Node", port_no: int) -> None:
        self.node = node
        self.port_no = port_no
        self.link: Optional["Link"] = None
        #: the port at the other end of the attached link, if wired
        self.peer: Optional["Port"] = None
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        # tcpdump-style observers: called on every received packet.
        self.taps: List[Callable[["Packet"], None]] = []
        # A port may be administratively blocked (compare DoS mitigation);
        # frames it refuses to send or to receive meanwhile are counted.
        self.blocked_until: float = 0.0
        self.blocked_drops = 0
        #: name and counters of the link direction this port transmits into
        self.wire_name: Optional[str] = None
        self.wire_stats: Optional[LinkStats] = None

    @property
    def full_name(self) -> str:
        return f"{self.node.name}.p{self.port_no}"

    def attach_link(
        self,
        link: "Link",
        peer: "Port",
        name: str,
        rate_bps: Optional[float],
        delay: float,
        loss: float,
        queue_capacity: int,
    ) -> None:
        """Wire this port to ``peer`` over ``link``; ``name`` and the rest
        describe the direction this port transmits into."""
        if self.link is not None:
            raise NetworkError(f"port {self.full_name} already wired")
        self.link = link
        self.peer = peer
        self.wire_name = name
        self.wire_stats = LinkStats().publish("link", link=name)
        self._rate_bps = rate_bps
        self._delay = delay
        self._loss = loss
        # Optional stateful loss model (chaos bursts); when set it
        # replaces the independent Bernoulli draw entirely.
        self._loss_model: Optional[Callable[[], bool]] = None
        self._queue_capacity = queue_capacity
        self._busy_until = 0.0
        self._queued = 0  # frames serialised or waiting to, not yet arrived
        # None under a disabled registry: the hot path pays one
        # `is not None` test per packet.
        self._h_queue_delay = bind_histogram(
            "link_queue_delay_seconds",
            "time a frame waits for the transmitter before serialising",
            link=name,
        )

    @property
    def is_wired(self) -> bool:
        return self.link is not None

    def send(self, packet: "Packet") -> None:
        """Transmit a packet out of this port (drops if unwired/blocked)."""
        link = self.link
        if link is None:
            return
        node = self.node
        sim = node.sim
        now = sim.now
        if now < self.blocked_until:
            self.blocked_drops += 1
            if node.tracing("port.blocked_drop"):
                node.trace("port.blocked_drop", port=self.port_no, packet=packet)
            return
        wire_len = packet.wire_len
        self.tx_packets += 1
        self.tx_bytes += wire_len
        if packet.trace_id is not None:
            self._span(packet, "span.send", now)
        stats = self.wire_stats
        if link._down:
            stats.fault_drops += 1
            if link.tracing("link.drop"):
                link.trace(
                    now, "link.drop", self.wire_name, reason="down", packet=packet
                )
            return
        if self._queued >= self._queue_capacity:
            stats.queue_drops += 1
            if link.tracing("link.drop"):
                link.trace(
                    now, "link.drop", self.wire_name, reason="queue", packet=packet
                )
            return
        stats.tx_packets += 1
        stats.tx_bytes += wire_len
        rate = self._rate_bps
        if rate is None:
            start = finish = now
        else:
            start = self._busy_until
            if start < now:
                start = now
            finish = start + wire_len * 8.0 / rate
            self._busy_until = finish
        self._queued += 1
        if self._h_queue_delay is not None:
            self._h_queue_delay.observe(start - now)
        if packet.trace_id is not None:
            link.trace(
                now,
                "link.tx",
                self.wire_name,
                trace=packet.trace_id,
                queue_depth=self._queued,
                queue_delay=start - now,
            )
        if self._loss_model is not None:
            lost = self._loss_model()
        elif self._loss > 0.0:
            lost = link.rng.random() < self._loss
        else:
            lost = False
        sim.post(finish + self._delay, self._arrive, (packet, wire_len, lost))

    def _arrive(self, packet: "Packet", wire_len: int, lost: bool) -> None:
        """Event: a frame this port sent reaches the far end of the wire."""
        self._queued -= 1
        stats = self.wire_stats
        if lost:
            stats.loss_drops += 1
            if self.link.tracing("link.drop"):
                self.link.trace(
                    self.node.sim.now, "link.drop", self.wire_name, reason="loss",
                    packet=packet,
                )
            return
        stats.delivered_packets += 1
        stats.delivered_bytes += wire_len
        far = self.peer
        far.rx_packets += 1
        far.rx_bytes += packet.wire_len
        for tap in far.taps:
            tap(packet)
        node = far.node
        now = node.sim.now
        # The span hop mirrors tcpdump-tap semantics exactly: it fires on
        # every delivery, before the administrative port block is applied
        # (taps above see blocked arrivals too).
        if packet.trace_id is not None:
            far._span(packet, "span.hop", now)
        if now < far.blocked_until:
            far.blocked_drops += 1
            if node.tracing("port.blocked_drop"):
                node.trace("port.blocked_drop", port=far.port_no, packet=packet)
            return
        node.receive(packet, far)

    # ------------------------------------------------------------------
    # packet-train fast path (batch realm)
    # ------------------------------------------------------------------
    def send_batch_packet(self, batch, i: int, now: float) -> None:
        """:meth:`send` for one packet of a train at virtual time ``now``.

        Train packets are never trace-marked (marked packets split out of
        the train at emission), so the span and ``link.tx`` records are
        omitted.
        """
        link = self.link
        if link is None:
            return
        if now < self.blocked_until:
            self.blocked_drops += 1
            if self.node.tracing("port.blocked_drop"):
                self.node.trace(
                    "port.blocked_drop", port=self.port_no, packet=batch.packet_at(i)
                )
            return
        wire_len = batch.wire_len
        self.tx_packets += 1
        self.tx_bytes += wire_len
        stats = self.wire_stats
        if link._down:
            stats.fault_drops += 1
            if link.tracing("link.drop"):
                link.trace(now, "link.drop", self.wire_name, reason="down",
                           packet=batch.packet_at(i))
            return
        if self._queued >= self._queue_capacity:
            stats.queue_drops += 1
            if link.tracing("link.drop"):
                link.trace(now, "link.drop", self.wire_name, reason="queue",
                           packet=batch.packet_at(i))
            return
        stats.tx_packets += 1
        stats.tx_bytes += wire_len
        rate = self._rate_bps
        if rate is None:
            start = finish = now
        else:
            start = self._busy_until
            if start < now:
                start = now
            finish = start + wire_len * 8.0 / rate
            self._busy_until = finish
        self._queued += 1
        if self._h_queue_delay is not None:
            self._h_queue_delay.observe(start - now)
        if self._loss_model is not None:
            lost = self._loss_model()
        elif self._loss > 0.0:
            lost = link.rng.random() < self._loss
        else:
            lost = False
        self.node.sim.realm.post(
            finish + self._delay, self._arrive_batch_packet, (batch, i, lost)
        )

    def _arrive_batch_packet(self, batch, i: int, lost: bool) -> None:
        """Micro-event: :meth:`_arrive` for one train packet.

        Same-time arrivals keep ingress order (micro FIFO by posting
        sequence mirrors the event heap's tie-break)."""
        self._queued -= 1
        stats = self.wire_stats
        far = self.peer
        node = far.node
        now = node.sim.now
        if lost:
            stats.loss_drops += 1
            if self.link.tracing("link.drop"):
                self.link.trace(now, "link.drop", self.wire_name, reason="loss",
                                packet=batch.packet_at(i))
            return
        wire_len = batch.wire_len
        stats.delivered_packets += 1
        stats.delivered_bytes += wire_len
        far.rx_packets += 1
        far.rx_bytes += wire_len
        if far.taps:
            pkt = batch.packet_at(i)
            for tap in far.taps:
                tap(pkt)
        if now < far.blocked_until:
            far.blocked_drops += 1
            if node.tracing("port.blocked_drop"):
                node.trace(
                    "port.blocked_drop", port=far.port_no, packet=batch.packet_at(i)
                )
            return
        node.receive_batch_packet(batch, i, far)

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

    def tracing(self, topic: str) -> bool:
        """Whether a record on ``topic`` would be kept or delivered: a
        per-packet site asks before it builds the record's fields."""
        bus = self.trace_bus
        return bus is not None and bus.wants(topic)

    def trace(self, topic: str, **data: object) -> None:
        if self.trace_bus is not None:
            self.trace_bus.emit(self.sim.now, topic, self.name, **data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, ports={sorted(self.ports)})"
