"""Duplex link model with bandwidth, delay, loss and drop-tail queueing.

Each direction of a link is an independent transmitter: packets are
serialised at the link rate (``wire_len * 8 / rate_bps`` seconds), waiting
packets occupy a bounded drop-tail queue, and delivery to the far end is
delayed by the propagation delay.  Random loss (if configured) is drawn
from a named RNG stream so runs are reproducible.

A direction's transmitter lives on the port that sends into it
(:class:`~repro.net.node.Port`), so a hop is two Python frames:
``Port.send`` and the arrival event.  :class:`Link` wires the two ports
and is the duplex handle: faults, loss models, rate changes and the
per-direction counters are reached through it.

This is the simulator analogue of Mininet's ``TCLink``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.node import LinkStats
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.net.node import Port

__all__ = ["Link", "LinkStats"]


def _check_loss(loss: float) -> None:
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss probability out of range: {loss}")


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
        _check_loss(loss)
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
        for port, peer in ((a, b), (b, a)):
            port.attach_link(
                self, peer, f"{self.name}:{port.full_name}->{peer.full_name}",
                rate_bps, delay, loss, queue_capacity,
            )

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

    def set_loss(self, probability: float) -> None:
        """Set both directions' independent per-packet loss probability
        (an installed loss model takes precedence over it)."""
        _check_loss(probability)
        self.a._loss = self.b._loss = probability

    def set_loss_model(self, model: Optional[Callable[[], bool]]) -> None:
        """Install a per-packet loss decision callable on both directions
        (``None`` restores the configured Bernoulli loss)."""
        self.a._loss_model = self.b._loss_model = model

    def scale_rate(self, factor: float) -> None:
        """Multiply both directions' serialisation rate (bandwidth
        degradation; ``None``-rate links are infinitely fast and stay so)."""
        if factor <= 0.0:
            raise ValueError(f"rate factor must be positive, got {factor}")
        for port in (self.a, self.b):
            if port._rate_bps is not None:
                port._rate_bps *= factor

    def rates_bps(self) -> tuple:
        """Current per-direction rates (a->b, b->a)."""
        return (self.a._rate_bps, self.b._rate_bps)

    def peer_of(self, port: "Port") -> "Port":
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise ValueError(f"port {port.full_name} is not an endpoint of {self.name}")

    def directions(self) -> tuple:
        """Both directions as ``(name, stats, queue_depth)`` triples
        (used by the observability pull collector)."""
        return tuple(
            (port.wire_name, port.wire_stats, port._queued) for port in (self.a, self.b)
        )

    def direction_stats(self, src_port: "Port") -> LinkStats:
        if src_port is self.a or src_port is self.b:
            return src_port.wire_stats
        raise ValueError(f"port {src_port.full_name} is not an endpoint of {self.name}")

    def tracing(self, topic: str) -> bool:
        """Whether a record on ``topic`` would be kept or delivered: a
        per-frame site asks before it builds the record's fields."""
        bus = self._trace_bus
        return bus is not None and bus.wants(topic)

    def trace(self, time: float, topic: str, source: str, **data: object) -> None:
        if self._trace_bus is not None:
            self._trace_bus.emit(time, topic, source, **data)
