"""End hosts with a small protocol stack.

A :class:`Host` owns one network port, a MAC and an IPv4 address, and a
demultiplexer that hands received packets to registered protocol agents:

* UDP agents register by destination port,
* TCP agents register by destination port,
* one ICMP agent may be registered (a default echo responder is installed
  so every host answers pings, like a Mininet host would).

Hosts model a small, configurable stack traversal delay (``stack_delay``),
which contributes to end-to-end RTT exactly as the kernel stack does in
the paper's Mininet measurements.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.net.addresses import IpAddress, MacAddress
from repro.net.node import NetworkError, Node, Port
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    Icmp,
    Packet,
    Tcp,
    Udp,
)
from repro.obs.metrics import StatBlock
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

PacketHandler = Callable[[Packet], None]


class Host(Node):
    """A single-homed end host."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        ip: IpAddress,
        trace_bus: Optional[TraceBus] = None,
        stack_delay: float = 0.0,
        stack_jitter: float = 0.0,
        rng=None,
        recv_cost_base: float = 0.0,
        recv_cost_per_byte: float = 0.0,
        promiscuous: bool = False,
    ) -> None:
        super().__init__(sim, name, trace_bus)
        self.mac = MacAddress(mac)
        self.ip = IpAddress(ip)
        self.stack_delay = stack_delay
        # OS-scheduling noise: uniform extra delay in [0, stack_jitter)
        # added per stack traversal (needs an rng to be active).
        self.stack_jitter = stack_jitter
        self._rng = rng
        # Per-packet receive CPU cost (single server): base + per_byte *
        # wire length.  This models the kernel's per-packet+copy cost and
        # is what makes receiving k duplicate copies (Dup3/Dup5) expensive.
        self.recv_cost_base = recv_cost_base
        self.recv_cost_per_byte = recv_cost_per_byte
        # One CPU per host: receives are served FIFO, and sends wait for
        # the CPU to be free (so a burst of duplicate arrivals delays the
        # host's own transmissions — the paper's "buffered on exiting the
        # NetCo design and the destination host").
        self._cpu_busy_until = 0.0
        # Socket-buffer analogue: arrivals waiting for the CPU beyond
        # this bound are dropped, like a full SO_RCVBUF.
        self.recv_queue_capacity = 128
        self._recv_queued = 0
        self.rx_dropped = 0
        self.promiscuous = promiscuous
        self._udp_handlers: Dict[int, PacketHandler] = {}
        # Batch-aware UDP agents: dport -> fn(batch, i).  Bound alongside
        # the per-packet handler; used by the packet-train fast path.
        self._udp_batch_handlers: Dict[int, Callable] = {}
        self._tcp_handlers: Dict[int, PacketHandler] = {}
        self._icmp_handler: Optional[PacketHandler] = None
        self._raw_handler: Optional[PacketHandler] = None
        self._ip_ident = 0
        self.rx_foreign = 0  # frames addressed to someone else (screening)
        StatBlock.publish_samples(
            lambda: {
                "host_rx_dropped_total": self.rx_dropped,
                "host_rx_foreign_total": self.rx_foreign,
            },
            host=name,
        )
        # Packet-lifecycle tracer (repro.obs.spans.PacketTracer); when set,
        # frames are marked at injection so their trajectory can be followed.
        self.tracer = None
        self.add_port(1)
        self.enable_echo_responder()

    # ------------------------------------------------------------------
    # agent registration
    # ------------------------------------------------------------------
    def bind_udp(self, port: int, handler: PacketHandler) -> None:
        if port in self._udp_handlers:
            raise NetworkError(f"{self.name}: UDP port {port} already bound")
        self._udp_handlers[port] = handler

    def bind_udp_batch(self, port: int, handler: Callable) -> None:
        """Register a train-aware companion to a bound UDP handler.

        ``handler(batch, i)`` must account packet ``i`` of ``batch``
        exactly as the per-packet handler would account the materialised
        packet; the per-packet handler stays the source of truth for
        every non-batched delivery.
        """
        self._udp_batch_handlers[port] = handler

    def unbind_udp(self, port: int) -> None:
        self._udp_handlers.pop(port, None)
        self._udp_batch_handlers.pop(port, None)

    def bind_tcp(self, port: int, handler: PacketHandler) -> None:
        if port in self._tcp_handlers:
            raise NetworkError(f"{self.name}: TCP port {port} already bound")
        self._tcp_handlers[port] = handler

    def unbind_tcp(self, port: int) -> None:
        self._tcp_handlers.pop(port, None)

    def bind_icmp(self, handler: PacketHandler) -> None:
        self._icmp_handler = handler

    def bind_raw(self, handler: PacketHandler) -> None:
        """Receive every accepted frame (after specific handlers)."""
        self._raw_handler = handler

    def enable_echo_responder(self) -> None:
        """Install the default ping responder (idempotent)."""
        self._icmp_handler = self._echo_responder

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def next_ip_ident(self) -> int:
        """Monotone IPv4 identification counter (makes packets unique)."""
        self._ip_ident = (self._ip_ident + 1) & 0xFFFF
        return self._ip_ident

    def send(self, packet: Packet) -> None:
        """Transmit a fully-formed frame after the stack traversal delay.

        The transmission waits for the host CPU if the receive path is
        busy serving queued arrivals.
        """
        sim = self.sim
        now = sim.now
        tracer = self.tracer
        if tracer is not None and packet.trace_id is None:
            tracer.mark(packet, now, self.name)
        busy = self._cpu_busy_until
        depart = (busy if busy > now else now) + self._stack_traversal()
        if depart <= now:
            self.ports[1].send(packet)
        else:
            sim.post(depart, self.ports[1].send, (packet,))

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_port: Port) -> None:
        dst = packet.fields()[0].dst  # read-only: skip CoW materialisation
        if dst != self.mac and not dst.is_broadcast and not self.promiscuous:
            self.rx_foreign += 1
            if self.tracing("host.foreign_frame"):
                self.trace("host.foreign_frame", packet=packet)
            return
        cost = self.recv_cost_base + self.recv_cost_per_byte * packet.wire_len
        if cost <= 0 and self.stack_delay <= 0:
            self._dispatch(packet)
            return
        if self._recv_queued >= self.recv_queue_capacity:
            self.rx_dropped += 1
            if self.tracing("host.rx_drop"):
                self.trace("host.rx_drop", packet=packet)
            return
        # Single-server receive path: packets queue behind the stack.
        sim = self.sim
        now = sim.now
        busy = self._cpu_busy_until
        finish = (busy if busy > now else now) + cost
        self._cpu_busy_until = finish
        self._recv_queued += 1
        sim.post(finish + self._stack_traversal(), self._deliver, (packet,))

    def _deliver(self, packet: Packet) -> None:
        """Event: the receive stack hands one queued packet up."""
        self._recv_queued -= 1
        self._dispatch(packet)

    def receive_batch_packet(self, batch, i: int, in_port: Port) -> None:
        """:meth:`receive` for one train packet, at the patched clock.

        Mirrors the per-packet path statement for statement: same counter
        order, same CPU booking arithmetic, and — critically — the stack
        jitter is drawn *at arrival time*, so the host RNG stream advances
        exactly as in the unbatched run.
        """
        dst = batch.template.fields()[0].dst
        if dst != self.mac and not dst.is_broadcast and not self.promiscuous:
            self.rx_foreign += 1
            if self.tracing("host.foreign_frame"):
                self.trace("host.foreign_frame", packet=batch.packet_at(i))
            return
        cost = self.recv_cost_base + self.recv_cost_per_byte * batch.wire_len
        if cost <= 0 and self.stack_delay <= 0:
            self._dispatch_batch_packet(batch, i)
            return
        if self._recv_queued >= self.recv_queue_capacity:
            self.rx_dropped += 1
            if self.tracing("host.rx_drop"):
                self.trace("host.rx_drop", packet=batch.packet_at(i))
            return
        now = self.sim.now
        start = self._cpu_busy_until
        if start < now:
            start = now
        finish = start + cost
        self._cpu_busy_until = finish
        self._recv_queued += 1
        # One micro-event per delivery: host deliver times are not
        # guaranteed monotone (jitter can exceed a zero-cost gap), so a
        # FIFO pump would be unsound here — the realm heap orders them.
        self.sim.realm.post(
            finish + self._stack_traversal(), self._deliver_batch_packet, (batch, i)
        )

    def _deliver_batch_packet(self, batch, i: int) -> None:
        self._recv_queued -= 1
        self._dispatch_batch_packet(batch, i)

    def _dispatch_batch_packet(self, batch, i: int) -> None:
        l4 = batch.template.fields()[3]
        if type(l4) is Udp and self._raw_handler is None:
            handler = self._udp_batch_handlers.get(l4.dport)
            if handler is not None:
                handler(batch, i)
                return
        # No batch-aware agent for this shape: hand the materialised
        # packet to the ordinary demultiplexer (exact under the patched
        # clock — same handlers, same unhandled trace).
        self.sim.realm.note_fallback("mixed-headers")
        self._dispatch(batch.packet_at(i))

    # ------------------------------------------------------------------
    # packet-train injection (batch realm)
    # ------------------------------------------------------------------
    def send_batch(self, batch, times) -> None:
        """Inject a train; packet ``i`` departs as if sent at ``times[i]``.

        Replays :meth:`send` per packet: the tracer mark and the stack
        jitter draw happen in emission order at each packet's send time,
        so both RNG streams advance exactly as in the unbatched run.
        Packets the tracer samples are split out of the train and travel
        the legacy per-packet path so their span hops are recorded.
        """
        realm = self.sim.realm
        realm.merges_total += 1
        tracer = self.tracer
        bus = self.trace_bus
        busy = self._cpu_busy_until
        port = self.port(1)
        idxs = []
        departs = []
        if bus is not None and bus.wants("batch.merge"):
            bus.emit(times[0], "batch.merge", self.name,
                     train=batch.count, wire_len=batch.wire_len)
        for i in range(batch.count):
            t = times[i]
            if tracer is not None:
                pkt = batch.packet_at(i)
                tracer.mark(pkt, t, self.name)
                if pkt.trace_id is not None:
                    # Sampled: give it the full per-packet journey.
                    realm.note_fallback("mixed-headers")
                    if bus is not None:
                        bus.emit(t, "batch.split", self.name,
                                 trace=pkt.trace_id, index=i, train=batch.count)
                    depart = max(t, busy) + self._stack_traversal()
                    if depart <= t:
                        realm.post(t, port.send, (pkt,))
                    else:
                        realm.post(depart, port.send, (pkt,))
                    continue
            depart = max(t, busy) + self._stack_traversal()
            idxs.append(i)
            departs.append(depart if depart > t else t)
        if not idxs:
            return
        if any(departs[k] < departs[k - 1] for k in range(1, len(departs))):
            # Jitter exceeded the send interval somewhere: the in-order
            # walk would misorder departures, so let the realm heap
            # schedule each one (rare — never with calibrated params).
            for k, i in enumerate(idxs):
                realm.post(departs[k], port.send_batch_packet, (batch, i, departs[k]))
            return
        realm.post(departs[0], self._batch_egress, (batch, idxs, departs, 0))

    def _batch_egress(self, batch, idxs, departs, j: int) -> None:
        """Walk a train's departures through port 1 in timestamp order.

        Invoked at ``departs[j]``; keeps going inline while the realm
        says no other event is due first, otherwise re-posts itself at
        the next departure.
        """
        sim = self.sim
        realm = sim.realm
        port = self.port(1)
        n = len(idxs)
        while True:
            port.send_batch_packet(batch, idxs[j], sim.now)
            j += 1
            if j >= n:
                return
            t = departs[j]
            if t <= sim.now:
                continue
            if realm.runnable(t):
                sim.now = t
                continue
            realm.post(t, self._batch_egress, (batch, idxs, departs, j))
            return

    def _stack_traversal(self) -> float:
        if self.stack_jitter > 0.0 and self._rng is not None:
            return self.stack_delay + self._rng.random() * self.stack_jitter
        return self.stack_delay

    def _dispatch(self, packet: Packet) -> None:
        handled = False
        l4 = packet.fields()[3]  # read-only: skip CoW materialisation
        if isinstance(l4, Udp):
            handler = self._udp_handlers.get(l4.dport)
            if handler is not None:
                handler(packet)
                handled = True
        elif isinstance(l4, Tcp):
            handler = self._tcp_handlers.get(l4.dport)
            if handler is not None:
                handler(packet)
                handled = True
        elif isinstance(l4, Icmp):
            if self._icmp_handler is not None:
                self._icmp_handler(packet)
                handled = True
        if self._raw_handler is not None:
            self._raw_handler(packet)
            handled = True
        if not handled and self.tracing("host.unhandled"):
            self.trace("host.unhandled", packet=packet)

    # ------------------------------------------------------------------
    # default ICMP echo behaviour
    # ------------------------------------------------------------------
    def _echo_responder(self, packet: Packet) -> None:
        eth, _vlan, ip, icmp = packet.fields()
        if not isinstance(icmp, Icmp) or icmp.icmp_type != ICMP_ECHO_REQUEST:
            return
        if ip is None or ip.dst != self.ip:
            return
        reply = Packet.icmp_echo(
            src_mac=self.mac,
            dst_mac=eth.src,
            src_ip=self.ip,
            dst_ip=ip.src,
            ident=icmp.ident,
            seqno=icmp.seqno,
            reply=True,
            payload=packet.payload,
            ip_ident=self.next_ip_ident(),
        )
        self.trace("host.echo_reply", to=str(ip.src), seq=icmp.seqno)
        self.send(reply)
