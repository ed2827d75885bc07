"""Tests for the duplex link model: delay, serialisation, queueing, loss."""

import itertools
import random
from collections import Counter, deque

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.addresses import IpAddress, MacAddress
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.node import Node, Port
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus

M1, M2 = MacAddress.from_index(1), MacAddress.from_index(2)
IP1, IP2 = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")


class Sink(Node):
    """Records (time, packet) arrivals."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []
        self.add_port(1)

    def receive(self, packet, in_port):
        self.arrivals.append((self.sim.now, packet))


def make_pair(sim, **link_kwargs):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.port(1), b.port(1), rng_streams=RngStreams(1), **link_kwargs)
    return a, b, link


def packet(size=100):
    pad = max(0, size - 42)
    return Packet.udp(M1, M2, IP1, IP2, 1, 2, payload=b"\x00" * pad)


class TestDelivery:
    def test_infinite_rate_zero_delay_delivers_immediately(self):
        sim = Simulator()
        a, b, _link = make_pair(sim)
        a.port(1).send(packet())
        sim.run()
        assert len(b.arrivals) == 1
        assert b.arrivals[0][0] == 0.0

    def test_propagation_delay(self):
        sim = Simulator()
        a, b, _ = make_pair(sim, delay=1e-3)
        a.port(1).send(packet())
        sim.run()
        assert b.arrivals[0][0] == pytest.approx(1e-3)

    def test_serialisation_time(self):
        sim = Simulator()
        a, b, _ = make_pair(sim, rate_bps=1e6)  # 1 Mbit/s
        pkt = packet(size=125)  # 1000 bits -> 1 ms
        a.port(1).send(pkt)
        sim.run()
        assert b.arrivals[0][0] == pytest.approx(pkt.wire_len * 8 / 1e6)

    def test_back_to_back_packets_serialise_sequentially(self):
        sim = Simulator()
        a, b, _ = make_pair(sim, rate_bps=1e6)
        pkt = packet(size=125)
        ser = pkt.wire_len * 8 / 1e6
        a.port(1).send(pkt)
        a.port(1).send(packet(size=125))
        sim.run()
        times = [t for t, _ in b.arrivals]
        assert times == pytest.approx([ser, 2 * ser])

    def test_duplex_directions_are_independent(self):
        sim = Simulator()
        a, b, _ = make_pair(sim, rate_bps=1e6)
        a.port(1).send(packet(size=125))
        b.port(1).send(packet(size=125))
        sim.run()
        # both arrive at the single-direction serialisation time
        assert a.arrivals[0][0] == pytest.approx(b.arrivals[0][0])

    def test_bidirectional_delivery(self):
        sim = Simulator()
        a, b, _ = make_pair(sim)
        b.port(1).send(packet())
        sim.run()
        assert len(a.arrivals) == 1


class TestQueueing:
    def test_queue_overflow_drops(self):
        sim = Simulator()
        a, b, link = make_pair(sim, rate_bps=1e6, queue_capacity=3)
        for _ in range(10):
            a.port(1).send(packet(size=125))
        sim.run()
        assert len(b.arrivals) == 3
        stats = link.direction_stats(a.port(1))
        assert stats.queue_drops == 7
        assert stats.delivered_packets == 3

    def test_queue_drains_over_time(self):
        sim = Simulator()
        a, b, _ = make_pair(sim, rate_bps=1e6, queue_capacity=2)
        pkt = packet(size=125)
        ser = pkt.wire_len * 8 / 1e6
        a.port(1).send(packet(size=125))
        sim.schedule(ser * 1.5, lambda: a.port(1).send(packet(size=125)))
        sim.run()
        assert len(b.arrivals) == 2

    def test_invalid_queue_capacity(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a.port(1), b.port(1), queue_capacity=0)


class TestLoss:
    def test_zero_loss_delivers_everything(self):
        sim = Simulator()
        a, b, _ = make_pair(sim, loss=0.0)
        for _ in range(50):
            a.port(1).send(packet())
        sim.run()
        assert len(b.arrivals) == 50

    def test_loss_rate_is_approximate(self):
        sim = Simulator()
        a, b, link = make_pair(sim, loss=0.3, queue_capacity=4000)
        for _ in range(2000):
            a.port(1).send(packet())
        sim.run()
        delivered = len(b.arrivals)
        assert 1200 < delivered < 1600  # ~70% of 2000
        assert link.direction_stats(a.port(1)).loss_drops == 2000 - delivered

    def test_loss_is_reproducible_across_runs(self):
        def run_once():
            sim = Simulator()
            a, b, _ = make_pair(sim, loss=0.5)
            for _ in range(100):
                a.port(1).send(packet())
            sim.run()
            return len(b.arrivals)

        assert run_once() == run_once()

    def test_invalid_loss_rejected(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a.port(1), b.port(1), loss=1.0)

    def test_set_loss_is_the_constructor_loss(self):
        def run_once(set_later):
            sim = Simulator()
            a, b, link = make_pair(sim, loss=0.0 if set_later else 0.4)
            if set_later:
                link.set_loss(0.4)
            for _ in range(100):
                a.port(1).send(packet())
                b.port(1).send(packet())
            sim.run()
            return len(a.arrivals), len(b.arrivals)

        assert run_once(True) == run_once(False)
        assert 0 < sum(run_once(True)) < 200
        sim = Simulator()
        _a, _b, link = make_pair(sim)
        with pytest.raises(ValueError):
            link.set_loss(1.0)


class TestWiring:
    def test_peer_of(self):
        sim = Simulator()
        a, b, link = make_pair(sim)
        assert link.peer_of(a.port(1)) is b.port(1)
        assert link.peer_of(b.port(1)) is a.port(1)

    def test_peer_of_foreign_port_rejected(self):
        sim = Simulator()
        a, b, link = make_pair(sim)
        c = Sink(sim, "c")
        with pytest.raises(ValueError):
            link.peer_of(c.port(1))

    def test_stats_counters(self):
        sim = Simulator()
        a, b, link = make_pair(sim)
        pkt = packet()
        a.port(1).send(pkt)
        sim.run()
        stats = link.direction_stats(a.port(1))
        assert stats.tx_packets == 1
        assert stats.tx_bytes == pkt.wire_len
        assert stats.delivered_bytes == pkt.wire_len

    def test_drop_trace_emitted(self):
        sim = Simulator()
        bus = TraceBus(retain=True)
        a, b = Sink(sim, "a"), Sink(sim, "b")
        Link(
            sim, a.port(1), b.port(1), rate_bps=1e3, queue_capacity=1,
            trace_bus=bus, rng_streams=RngStreams(1),
        )
        a.port(1).send(packet())
        a.port(1).send(packet())
        sim.run()
        assert bus.count("link.drop") == 1

    def test_negative_delay_rejected(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a.port(1), b.port(1), delay=-1.0)


# ----------------------------------------------------------------------
# stateful: one duplex link under every operation it offers
# ----------------------------------------------------------------------
RATE = 1e6
DELAY = 2e-4
CAPACITY = 3


class Recorder(Node):
    """One port; records what the node receives and, through a tap on the
    port, every frame that reaches it."""

    def __init__(self, sim, name, bus):
        super().__init__(sim, name, trace_bus=bus)
        self.received = []
        self.tapped = []
        self.add_port(1).taps.append(
            lambda pkt: self.tapped.append((self.sim.now, pkt))
        )

    def receive(self, packet, in_port):
        self.received.append((self.sim.now, packet))


class LinkMachine(RuleBasedStateMachine):
    """A reference model of both directions of one link, checked against
    the link after every step.  Side 0 is node ``a``, side 1 node ``b``;
    a direction is named by its sending side."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.bus = TraceBus(retain=True)
        self.nodes = (Recorder(self.sim, "a", self.bus), Recorder(self.sim, "b", self.bus))
        self.link = Link(
            self.sim, self.nodes[0].port(1), self.nodes[1].port(1),
            rate_bps=RATE, delay=DELAY, queue_capacity=CAPACITY,
            trace_bus=self.bus, rng_streams=RngStreams(1),
        )
        self.rate = [RATE, RATE]
        self.busy_until = [0.0, 0.0]
        self.blocked_until = [0.0, 0.0]
        self.down = False
        self.loss_model = False
        self.draws = []  # every loss decision the installed model made
        # per direction: admitted frames not yet at the far end, as
        # (arrival time, packet, lost), in admission order
        self.flight = (deque(), deque())
        self.counts = [Counter(), Counter()]  # per direction
        self.arrived = [0, 0]  # per receiving side: tapped frames checked
        self.received = [0, 0]
        self.ident = 0

    def _install(self, decide):
        def model():
            lost = decide()
            self.draws.append(lost)
            return lost

        self.link.set_loss_model(model)
        self.loss_model = True

    @rule(side=st.integers(0, 1), pad=st.integers(0, 200), marked=st.booleans())
    def send(self, side, pad, marked):
        now = self.sim.now
        self.ident += 1
        pkt = Packet.udp(M1, M2, IP1, IP2, 1, 2, payload=b"\x00" * pad,
                         ident=self.ident)
        if marked:
            pkt.trace_id = self.ident
        draws = len(self.draws)
        self.nodes[side].port(1).send(pkt)
        counts = self.counts[side]
        drawn = False
        if now < self.blocked_until[side]:
            counts["blocked"] += 1
        elif self.down:
            counts["down"] += 1
        elif len(self.flight[side]) >= CAPACITY:
            counts["queue"] += 1
        else:
            counts["tx"] += 1
            counts["marked_tx"] += marked
            start = self.busy_until[side]
            if start < now:
                start = now
            finish = start + pkt.wire_len * 8.0 / self.rate[side]
            self.busy_until[side] = finish
            drawn = self.loss_model
            lost = drawn and self.draws[-1]
            self.flight[side].append((finish + DELAY, pkt, lost))
        # a loss decision is drawn once per admitted frame, at admission
        assert len(self.draws) == draws + drawn
        counts["marked_sent"] += marked and now >= self.blocked_until[side]

    @rule()
    def fail(self):
        self.link.fail()
        self.down = True

    @rule()
    def recover(self):
        self.link.recover()
        self.down = False

    @rule(p=st.sampled_from([0.0, 0.3, 0.7, 0.99]), seed=st.integers(0, 2**16))
    def bernoulli_loss(self, p, seed):
        rng = random.Random(seed)
        self._install(lambda: rng.random() < p)

    @rule(script=st.lists(st.booleans(), min_size=1, max_size=6))
    def scripted_loss(self, script):
        decisions = itertools.cycle(script)
        self._install(lambda: next(decisions))

    @rule()
    def no_loss_model(self):
        self.link.set_loss_model(None)  # the configured loss is zero
        self.loss_model = False

    @rule(factor=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    def scale_rate(self, factor):
        self.link.scale_rate(factor)
        self.rate = [rate * factor for rate in self.rate]

    @rule(side=st.integers(0, 1), duration=st.floats(0.0, 3e-3))
    def block(self, side, duration):
        self.nodes[side].port(1).block_for(duration)
        self.blocked_until[side] = max(
            self.blocked_until[side], self.sim.now + duration
        )

    @rule(dt=st.floats(0.0, 3e-3))
    def advance(self, dt):
        until = self.sim.now + dt
        self.sim.run(until=until)
        for side in (0, 1):
            far = 1 - side
            node = self.nodes[far]
            flight = self.flight[side]
            arrived = []
            while flight and flight[0][0] <= until:
                when, pkt, lost = flight.popleft()
                if lost:
                    self.counts[side]["lost"] += 1
                else:
                    arrived.append((when, pkt))
                    self.counts[side]["delivered_bytes"] += pkt.wire_len
            # FIFO, at the booked time, the very object that was sent
            tapped = node.tapped[self.arrived[far]:]
            assert [t for t, _ in tapped] == [t for t, _ in arrived]
            assert all(p is q for (_, p), (_, q) in zip(tapped, arrived))
            self.arrived[far] = len(node.tapped)
            # taps see blocked arrivals; the node does not
            passed = [(t, p) for t, p in arrived if not t < self.blocked_until[far]]
            received = node.received[self.received[far]:]
            assert [(t, id(p)) for t, p in received] == [(t, id(p)) for t, p in passed]
            self.received[far] = len(node.received)
            self.counts[side]["blocked_arrivals"] += len(arrived) - len(passed)
            self.counts[side]["marked_hops"] += sum(p.trace_id is not None for _, p in arrived)

    @invariant()
    def counters_match_the_model(self):
        directions = self.link.directions()
        for side, (_name, stats, depth) in enumerate(directions):
            counts = self.counts[side]
            sender = self.nodes[side].port(1)
            assert self.link.direction_stats(sender) is stats
            assert depth == len(self.flight[side])
            assert stats.tx_packets == stats.delivered_packets + stats.loss_drops + depth
            assert (stats.tx_packets, stats.loss_drops) == (counts["tx"], counts["lost"])
            # admission drops are never transmissions
            assert (stats.queue_drops, stats.fault_drops) == (counts["queue"], counts["down"])
            # what the far port received, counted once: on this direction
            assert stats.delivered_bytes == counts["delivered_bytes"]
            assert sender.blocked_until == self.blocked_until[side]
            # a blocked port counts what it refuses, either way
            assert sender.blocked_drops == (
                counts["blocked"] + self.counts[1 - side]["blocked_arrivals"]
            )

    @invariant()
    def telemetry_matches_the_model(self):
        bus = self.bus
        drops = Counter()
        for counts in self.counts:
            drops.update(down=counts["down"], queue=counts["queue"], loss=counts["lost"])
        reasons = Counter(r.data["reason"] for r in bus.select(topic="link.drop"))
        assert reasons == +drops  # unary plus drops the zero counts
        assert bus.count("link.tx") == sum(c["marked_tx"] for c in self.counts)
        for side, name in enumerate("ab"):
            counts, incoming = self.counts[side], self.counts[1 - side]
            assert bus.count("span.send", name) == counts["marked_sent"]
            assert bus.count("span.hop", name) == incoming["marked_hops"]
            assert bus.count("port.blocked_drop", name) == (
                counts["blocked"] + incoming["blocked_arrivals"]
            )


LinkMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestLinkMachine = LinkMachine.TestCase
