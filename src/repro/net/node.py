"""Base node and port abstractions.

A :class:`Node` is anything attached to the network: a host, an OpenFlow
switch, a trusted hub, or the compare server.  Nodes own numbered
:class:`Port` objects; links connect ports pairwise.  A :class:`Datapath`
is a node that serves its arrivals from a bounded FIFO on a CPU: the
untrusted OpenFlow switch and the trusted combiner endpoint are both one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.obs.metrics import StatBlock, bind_histogram
from repro.sim.engine import CpuResource, Simulator
from repro.sim.trace import TraceBus
from repro.transport.des import DesTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link
    from repro.net.packet import Packet
    from repro.openflow.controller import Controller


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


class SwitchStats(StatBlock):
    """Datapath-level counters."""

    __slots__ = (
        "rx_packets",
        "forwarded",
        "dropped_no_match",
        "dropped_no_actions",
        "dropped_service_queue",
        "dropped_failed",
        "dropped_bad_port",
        "packet_ins",
        "packet_outs",
        "flow_mods",
        "behavior_handled",
    )


class Datapath(Node):
    """A node whose arrivals wait in a bounded single-server FIFO.

    The paper runs software datapaths inside Mininet: each packet pays
    ``proc_time`` plus ``proc_per_byte`` per wire byte on ``cpu`` before
    the subclass's ``_process(packet, in_port_no)`` sees it (the train
    path's ``_serve_batch_packet(batch, i, in_port_no, now)`` likewise).
    Passing one shared :class:`CpuResource` models co-location: every
    datapath's per-packet work serialises on one core.

    A datapath also owns its egress transport, a process-wide datapath
    id (in construction order), administrative port blocking and an
    optional controller channel; a subclass that connects one handles
    ``handle_controller_message``.
    """

    _dpid_counter = 0

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace_bus: Optional[TraceBus] = None,
        proc_time: float = 0.0,
        proc_per_byte: float = 0.0,
        cpu: Optional[CpuResource] = None,
        service_queue_capacity: int = 1000,
        datapath_id: Optional[int] = None,
    ) -> None:
        super().__init__(sim, name, trace_bus)
        # The byte-moving backend for this datapath's egress I/O.
        self.transport = DesTransport(sim, name=f"{name}.transport")
        if datapath_id is None:
            Datapath._dpid_counter += 1
            datapath_id = Datapath._dpid_counter
        self.datapath_id = datapath_id
        self.proc_time = proc_time
        self.proc_per_byte = proc_per_byte
        # None = this datapath has its own core.
        self.cpu = cpu if cpu is not None else CpuResource(f"{name}.cpu")
        self.service_queue_capacity = service_queue_capacity
        self.stats = SwitchStats().publish("switch", switch=name)
        self._controller: Optional["Controller"] = None
        self._controller_latency = 0.0
        self._in_service = 0
        self._failed = False

    # ------------------------------------------------------------------
    # control channel
    # ------------------------------------------------------------------
    def connect_controller(self, controller: "Controller", latency: float = 0.0) -> None:
        self._controller = controller
        self._controller_latency = latency
        controller.register_switch(self)

    @property
    def controller(self) -> Optional["Controller"]:
        return self._controller

    def _send_to_controller(self, message: object) -> None:
        controller = self._controller
        if controller is None:
            return
        sim = self.sim
        sim.post(
            sim.now + self._controller_latency,
            controller.receive_from_switch,
            (self, message),
        )

    def controller_latency(self) -> float:
        return self._controller_latency

    # ------------------------------------------------------------------
    # service queue
    # ------------------------------------------------------------------
    def receive(self, packet: "Packet", in_port: Port) -> None:
        stats = self.stats
        stats.rx_packets += 1
        if self._failed:
            stats.dropped_failed += 1
            if self.tracing("switch.drop"):
                self.trace("switch.drop", reason="failed", packet=packet)
            return
        if self._in_service >= self.service_queue_capacity:
            stats.dropped_service_queue += 1
            if self.tracing("switch.drop"):
                self.trace("switch.drop", reason="service_queue", packet=packet)
            return
        cost = self.proc_time + self.proc_per_byte * packet.wire_len
        if cost <= 0.0:
            self._process(packet, in_port.port_no)
            return
        # cpu.acquire, inlined (hot): book `cost` seconds of FIFO service.
        sim = self.sim
        now = sim.now
        cpu = self.cpu
        busy = cpu._busy_until
        finish = (now if now > busy else busy) + cost
        cpu._busy_until = finish
        cpu.busy_time += cost
        self._in_service += 1
        sim.post(finish, self._serve_one, (packet, in_port.port_no))

    def _serve_one(self, packet: "Packet", in_port_no: int) -> None:
        """Event: CPU service of one packet completes."""
        self._in_service -= 1
        self._process(packet, in_port_no)

    def receive_batch_packet(self, batch, i: int, in_port: Port) -> None:
        """:meth:`receive` for one train packet (clock already patched)."""
        stats = self.stats
        stats.rx_packets += 1
        if self._failed:
            stats.dropped_failed += 1
            if self.tracing("switch.drop"):
                self.trace("switch.drop", reason="failed", packet=batch.packet_at(i))
            return
        if self._in_service >= self.service_queue_capacity:
            stats.dropped_service_queue += 1
            if self.tracing("switch.drop"):
                self.trace(
                    "switch.drop", reason="service_queue", packet=batch.packet_at(i)
                )
            return
        cost = self.proc_time + self.proc_per_byte * batch.wire_len
        now = self.sim.now
        if cost <= 0.0:
            self._serve_batch_packet(batch, i, in_port.port_no, now)
            return
        # cpu.acquire, inlined (hot): book `cost` seconds of FIFO service.
        cpu = self.cpu
        busy = cpu._busy_until
        finish = (now if now > busy else busy) + cost
        cpu._busy_until = finish
        cpu.busy_time += cost
        self._in_service += 1
        self.sim.realm.post(
            finish, self._serve_batch_micro, (batch, i, in_port.port_no)
        )

    def _serve_batch_micro(self, batch, i: int, in_port_no: int) -> None:
        """Micro-event: CPU service of one train packet completes."""
        self._in_service -= 1
        self._serve_batch_packet(batch, i, in_port_no, self.sim.now)

    def block_port(self, port_no: int, duration: float) -> None:
        """Administratively block a port (compare DoS mitigation)."""
        port = self.ports.get(port_no)
        if port is not None:
            port.block_for(duration)
            self.trace("switch.port_blocked", port=port_no, duration=duration)
