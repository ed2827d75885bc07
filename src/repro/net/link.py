"""Duplex link model with bandwidth, delay, loss and drop-tail queueing.

Each direction of a link is an independent transmitter: packets are
serialised at the link rate (``wire_len * 8 / rate_bps`` seconds), waiting
packets occupy a bounded drop-tail queue, and delivery to the far end is
delayed by the propagation delay.  Random loss (if configured) is drawn
from a named RNG stream so runs are reproducible.

This is the simulator analogue of Mininet's ``TCLink``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.metrics import StatBlock, bind_histogram
from repro.sim import RngStreams, Simulator, TraceBus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.net.node import Port
    from repro.net.packet import Packet


class LinkStats(StatBlock):
    """Per-direction link counters."""

    __slots__ = (
        "tx_packets",
        "tx_bytes",
        "delivered_packets",
        "delivered_bytes",
        "queue_drops",
        "loss_drops",
        "fault_drops",
    )


class _Direction:
    """One direction of a duplex link (a single-server FIFO transmitter)."""

    def __init__(
        self,
        link: "Link",
        name: str,
        rate_bps: Optional[float],
        delay: float,
        loss: float,
        queue_capacity: int,
    ) -> None:
        self._link = link
        self._name = name
        self._rate_bps = rate_bps
        self._delay = delay
        self._loss = loss
        # Optional stateful loss model (chaos bursts); when set it
        # replaces the independent Bernoulli draw entirely.
        self._loss_model: Optional[Callable[[], bool]] = None
        self._queue_capacity = queue_capacity
        self._busy_until = 0.0
        self._queued = 0  # packets serialised or waiting to serialise
        self.stats = LinkStats().publish("link", link=name)
        # None under a disabled registry: the hot path pays one
        # `is not None` test per packet.
        self._h_queue_delay = bind_histogram(
            "link_queue_delay_seconds",
            "time a frame waits for the transmitter before serialising",
            link=name,
        )

    def transmit(self, packet: "Packet", deliver_to: "Port") -> None:
        link = self._link
        sim = link.sim
        now = sim._now
        stats = self.stats
        if link._down:
            stats.fault_drops += 1
            link.trace(now, "link.drop", self._name, reason="down", packet=packet)
            return
        if self._queued >= self._queue_capacity:
            stats.queue_drops += 1
            link.trace(now, "link.drop", self._name, reason="queue", packet=packet)
            return
        wire_len = packet.wire_len
        stats.tx_packets += 1
        stats.tx_bytes += wire_len
        if self._rate_bps is None:
            start = finish = now
        else:
            start = self._busy_until
            if start < now:
                start = now
            finish = start + wire_len * 8.0 / self._rate_bps
            self._busy_until = finish
        self._queued += 1
        if self._h_queue_delay is not None:
            self._h_queue_delay.observe(start - now)
        if packet.trace_id is not None:
            link.trace(
                now,
                "link.tx",
                self._name,
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
        sim.post(finish + self._delay, self._arrive, (packet, wire_len, lost, deliver_to))

    def _arrive(self, packet: "Packet", wire_len: int, lost: bool, deliver_to: "Port") -> None:
        """Event: the frame reaches the far end of the wire."""
        self._queued -= 1
        stats = self.stats
        if lost:
            stats.loss_drops += 1
            self._link.trace(
                self._link.sim._now, "link.drop", self._name, reason="loss", packet=packet
            )
            return
        stats.delivered_packets += 1
        stats.delivered_bytes += wire_len
        deliver_to.deliver(packet)

    # ------------------------------------------------------------------
    # packet-train fast path (batch realm)
    # ------------------------------------------------------------------
    def ingress_batch_packet(self, batch, i: int, now: float, deliver_to: "Port") -> None:
        """:meth:`transmit` for one train packet at virtual time ``now``."""
        link = self._link
        stats = self.stats
        if link._down:
            stats.fault_drops += 1
            link.trace(now, "link.drop", self._name, reason="down",
                       packet=batch.packet_at(i))
            return
        if self._queued >= self._queue_capacity:
            stats.queue_drops += 1
            link.trace(now, "link.drop", self._name, reason="queue",
                       packet=batch.packet_at(i))
            return
        wire_len = batch.wire_len
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
        link.sim.realm.post(
            finish + self._delay, self._arrive_batch_packet,
            (batch, i, lost, deliver_to),
        )

    def _arrive_batch_packet(self, batch, i: int, lost: bool, deliver_to: "Port") -> None:
        """Micro-event: one train packet reaches the far end of the wire.

        Same-time arrivals keep ingress order (micro FIFO by posting
        sequence mirrors the legacy event heap's tie-break)."""
        self._queued -= 1
        stats = self.stats
        now = self._link.sim._now
        if lost:
            stats.loss_drops += 1
            self._link.trace(now, "link.drop", self._name, reason="loss",
                             packet=batch.packet_at(i))
            return
        stats.delivered_packets += 1
        stats.delivered_bytes += batch.wire_len
        deliver_to.deliver_batch_packet(batch, i, now)

    @property
    def queue_depth(self) -> int:
        return self._queued

    @property
    def utilisation_horizon(self) -> float:
        """Simulated time until the transmitter drains (>= now when busy)."""
        return self._busy_until


class Link:
    """A duplex point-to-point link between two node ports.

    Args:
        sim: shared simulator.
        a, b: the two endpoints (ports); the link registers itself on both.
        rate_bps: link rate in bits/second (``None`` = infinitely fast).
        delay: one-way propagation delay in seconds.
        loss: independent per-packet loss probability in [0, 1).
        queue_capacity: drop-tail queue bound, in packets, per direction.
    """


    def __init__(
        self,
        sim: Simulator,
        a: "Port",
        b: "Port",
        rate_bps: Optional[float] = None,
        delay: float = 0.0,
        loss: float = 0.0,
        queue_capacity: int = 100,
        trace_bus: Optional[TraceBus] = None,
        rng_streams: Optional[RngStreams] = None,
        name: Optional[str] = None,
    ) -> None:
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss probability out of range: {loss}")
        if delay < 0.0:
            raise ValueError(f"negative delay: {delay}")
        if queue_capacity < 1:
            raise ValueError(f"queue capacity must be >= 1: {queue_capacity}")
        self.sim = sim
        # The default name is derived from the endpoints (not a global
        # counter) so RNG stream names — and hence loss draws — are
        # reproducible run-to-run.
        self.name = name or f"{a.full_name}--{b.full_name}"
        self._trace_bus = trace_bus
        streams = rng_streams or RngStreams(0)
        self.rng = streams.stream(f"link.{self.name}.loss")
        self._down = False
        self.a = a
        self.b = b
        self._a_to_b = _Direction(
            self, f"{self.name}:{a.full_name}->{b.full_name}",
            rate_bps, delay, loss, queue_capacity,
        )
        self._b_to_a = _Direction(
            self, f"{self.name}:{b.full_name}->{a.full_name}",
            rate_bps, delay, loss, queue_capacity,
        )
        a.attach_link(self, self._a_to_b, b)
        b.attach_link(self, self._b_to_a, a)

    # ------------------------------------------------------------------
    # fault hooks (chaos engine / operator actions)
    # ------------------------------------------------------------------
    @property
    def is_down(self) -> bool:
        return self._down

    def fail(self) -> None:
        """Cut the link: frames offered while down are dropped (frames
        already serialised still propagate — the cut is at admission)."""
        if self._down:
            return
        self._down = True
        self.trace(self.sim.now, "link.down", self.name)

    def recover(self) -> None:
        if not self._down:
            return
        self._down = False
        self.trace(self.sim.now, "link.up", self.name)

    def set_loss_model(self, model: Optional[Callable[[], bool]]) -> None:
        """Install a per-packet loss decision callable on both directions
        (``None`` restores the configured Bernoulli loss)."""
        self._a_to_b._loss_model = model
        self._b_to_a._loss_model = model

    def scale_rate(self, factor: float) -> None:
        """Multiply both directions' serialisation rate (bandwidth
        degradation; ``None``-rate links are infinitely fast and stay so)."""
        if factor <= 0.0:
            raise ValueError(f"rate factor must be positive, got {factor}")
        for direction in (self._a_to_b, self._b_to_a):
            if direction._rate_bps is not None:
                direction._rate_bps *= factor

    def rates_bps(self) -> tuple:
        """Current per-direction rates (a->b, b->a)."""
        return (self._a_to_b._rate_bps, self._b_to_a._rate_bps)

    def peer_of(self, port: "Port") -> "Port":
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise ValueError(f"port {port.full_name} is not an endpoint of {self.name}")

    def directions(self) -> tuple:
        """Both directions as ``(name, stats, queue_depth)`` triples
        (used by the observability pull collector)."""
        return (
            (self._a_to_b._name, self._a_to_b.stats, self._a_to_b.queue_depth),
            (self._b_to_a._name, self._b_to_a.stats, self._b_to_a.queue_depth),
        )

    def direction_stats(self, src_port: "Port") -> LinkStats:
        if src_port is self.a:
            return self._a_to_b.stats
        if src_port is self.b:
            return self._b_to_a.stats
        raise ValueError(f"port {src_port.full_name} is not an endpoint of {self.name}")

    def trace(self, time: float, topic: str, source: str, **data: object) -> None:
        if self._trace_bus is not None:
            self._trace_bus.emit(time, topic, source, **data)
