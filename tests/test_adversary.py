"""Unit tests for each adversarial behaviour against a plain switch."""

import pytest

from repro.adversary.behaviors import (
    BenignBehavior,
    match_all,
    match_dst_mac,
    match_udp,
)
from repro.adversary.dos import BlackholeBehavior, ReplayFloodBehavior
from repro.adversary.mirror import MirrorAndDropBehavior, MirrorBehavior
from repro.adversary.modify import (
    DropBehavior,
    HeaderRewriteBehavior,
    PacketInjectionBehavior,
    PayloadCorruptionBehavior,
    dst_mac_rewrite,
    vlan_rewrite,
)
from repro.adversary.reroute import PortSwapBehavior, RerouteBehavior
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch
from repro.sim.engine import SimulationError


def rig():
    """h1 -- s1 -- {h2, h3}; routing by MAC destination."""
    net = Network(seed=3)
    s1 = OpenFlowSwitch(net.sim, "s1", trace_bus=net.trace)
    net.add_node(s1)
    h1 = net.add_host("h1", promiscuous=True)
    h2 = net.add_host("h2", promiscuous=True)
    h3 = net.add_host("h3", promiscuous=True)
    for h in (h1, h2, h3):
        net.connect(h, s1)
    for h in (h1, h2, h3):
        s1.install(
            Match(dl_dst=h.mac),
            [Output(net.port_no_between("s1", h.name))],
            priority=10,
        )
    rx = {h.name: [] for h in (h1, h2, h3)}
    for h in (h1, h2, h3):
        h.bind_raw(rx[h.name].append)
    return net, s1, h1, h2, h3, rx


def udp(a, b, ident=0, payload=b"data"):
    return Packet.udp(a.mac, b.mac, a.ip, b.ip, 1, 5001, payload=payload, ident=ident)


class TestSelectors:
    def test_basic_selectors(self):
        net, s1, h1, h2, h3, rx = rig()
        packet = udp(h1, h2)
        ping = Packet.icmp_echo(h1.mac, h2.mac, h1.ip, h2.ip, 1, 1)
        assert match_all()(packet) and match_all()(ping)
        assert match_dst_mac(h2.mac)(packet) and not match_dst_mac(h3.mac)(packet)
        assert match_udp()(packet) and not match_udp()(ping)


class TestBenignAndComposite:
    def test_benign_behavior_forwards_normally(self):
        net, s1, h1, h2, h3, rx = rig()
        BenignBehavior().attach(s1)
        h1.send(udp(h1, h2))
        net.run()
        assert len(rx["h2"]) == 1
        assert s1.stats.behavior_handled == 1


class TestReroute:
    def test_selected_traffic_rerouted(self):
        net, s1, h1, h2, h3, rx = rig()
        wrong_port = net.port_no_between("s1", "h3")
        RerouteBehavior(wrong_port, selector=match_dst_mac(h2.mac)).attach(s1)
        h1.send(udp(h1, h2))
        net.run()
        assert rx["h2"] == [] and len(rx["h3"]) == 1

    def test_unselected_traffic_unaffected(self):
        net, s1, h1, h2, h3, rx = rig()
        behavior = RerouteBehavior(
            net.port_no_between("s1", "h3"), selector=match_dst_mac(h2.mac)
        )
        behavior.attach(s1)
        h1.send(udp(h1, h3))
        net.run()
        assert len(rx["h3"]) == 1
        assert behavior.packets_tampered == 0

    def test_port_swap(self):
        net, s1, h1, h2, h3, rx = rig()
        p2 = net.port_no_between("s1", "h2")
        p3 = net.port_no_between("s1", "h3")
        PortSwapBehavior({p2: p3, p3: p2}).attach(s1)
        h1.send(udp(h1, h2))
        h1.send(udp(h1, h3, ident=1))
        net.run()
        assert len(rx["h3"]) == 1 and len(rx["h2"]) == 1
        assert rx["h3"][0].eth.dst == h2.mac  # swapped delivery
        assert rx["h2"][0].eth.dst == h3.mac


class TestMirror:
    def test_mirror_copies_and_forwards(self):
        net, s1, h1, h2, h3, rx = rig()
        MirrorBehavior(
            net.port_no_between("s1", "h3"), selector=match_dst_mac(h2.mac)
        ).attach(s1)
        h1.send(udp(h1, h2))
        net.run()
        assert len(rx["h2"]) == 1 and len(rx["h3"]) == 1

    def test_mirror_without_forwarding(self):
        net, s1, h1, h2, h3, rx = rig()
        MirrorBehavior(
            net.port_no_between("s1", "h3"),
            selector=match_dst_mac(h2.mac),
            forward_original=False,
        ).attach(s1)
        h1.send(udp(h1, h2))
        net.run()
        assert rx["h2"] == [] and len(rx["h3"]) == 1

    def test_mirror_and_drop(self):
        net, s1, h1, h2, h3, rx = rig()
        behavior = MirrorAndDropBehavior(
            mirror_port=net.port_no_between("s1", "h3"),
            mirror_selector=match_dst_mac(h2.mac),
            drop_selector=match_dst_mac(h1.mac),
        )
        behavior.attach(s1)
        h1.send(udp(h1, h2))   # mirrored + forwarded
        h2.send(udp(h2, h1, ident=1))  # dropped
        net.run()
        assert len(rx["h2"]) == 1 and len(rx["h3"]) == 1
        assert rx["h1"] == []
        assert behavior.mirrored == 1 and behavior.dropped == 1

    def test_mirror_in_port_restriction(self):
        net, s1, h1, h2, h3, rx = rig()
        behavior = MirrorAndDropBehavior(
            mirror_port=net.port_no_between("s1", "h3"),
            mirror_selector=match_dst_mac(h2.mac),
            drop_selector=lambda packet: False,
            mirror_in_ports=frozenset({net.port_no_between("s1", "h1")}),
        )
        behavior.attach(s1)
        h3.send(udp(h3, h2))  # enters on the restricted-out port: no mirror
        net.run()
        assert behavior.mirrored == 0
        assert len(rx["h2"]) == 1


class TestModify:
    def test_drop_behavior_counts(self):
        net, s1, h1, h2, h3, rx = rig()
        behavior = DropBehavior(selector=match_dst_mac(h2.mac))
        behavior.attach(s1)
        h1.send(udp(h1, h2))
        net.run()
        assert rx["h2"] == [] and behavior.dropped == 1

    def test_probabilistic_drop(self):
        net, s1, h1, h2, h3, rx = rig()
        behavior = DropBehavior(
            drop_probability=0.5, rng=net.rng.stream("adversary")
        )
        behavior.attach(s1)
        for i in range(200):
            net.sim.schedule(i * 1e-5, lambda i=i: h1.send(udp(h1, h2, ident=i)))
        net.run()
        assert 60 < len(rx["h2"]) < 140

    def test_header_rewrite_reroutes_via_table(self):
        net, s1, h1, h2, h3, rx = rig()
        HeaderRewriteBehavior(dst_mac_rewrite(h3.mac)).attach(s1)
        h1.send(udp(h1, h2))
        net.run()
        assert rx["h2"] == [] and len(rx["h3"]) == 1

    def test_vlan_rewrite_mutator(self):
        packet = udp_sample = None
        net, s1, h1, h2, h3, rx = rig()
        sample = udp(h1, h2)
        vlan_rewrite(99)(sample)
        assert sample.vlan.vid == 99
        vlan_rewrite(7)(sample)
        assert sample.vlan.vid == 7

    def test_payload_corruption_changes_bits_not_route(self):
        net, s1, h1, h2, h3, rx = rig()
        behavior = PayloadCorruptionBehavior(flip_offset=1)
        behavior.attach(s1)
        original = udp(h1, h2, payload=b"abcd")
        h1.send(original.copy())
        net.run()
        assert len(rx["h2"]) == 1
        assert rx["h2"][0].payload == b"a\x9dcd"
        assert behavior.corrupted == 1

    def test_packet_injection_timer(self):
        net, s1, h1, h2, h3, rx = rig()

        def factory(i):
            return Packet.udp(h3.mac, h2.mac, h3.ip, h2.ip, 6, 6, ident=i)

        behavior = PacketInjectionBehavior(
            factory, inject_port=net.port_no_between("s1", "h2"), period=1e-3
        )
        behavior.attach(s1)
        behavior.start()
        net.run(until=5.5e-3)
        behavior.stop()
        assert behavior.injected == 6  # t=0..5ms inclusive
        assert len(rx["h2"]) == 6

    def test_restarted_injection_keeps_its_period(self):
        net, s1, h1, h2, h3, rx = rig()

        def factory(i):
            return Packet.udp(h3.mac, h2.mac, h3.ip, h2.ip, 6, 6, ident=i)

        behavior = PacketInjectionBehavior(
            factory, inject_port=net.port_no_between("s1", "h2"), period=1e-3
        )
        behavior.attach(s1)
        behavior.start()
        net.run(until=2.5e-3)
        behavior.start()  # restarts the timer at t = 2.5 ms
        net.run(until=5.5e-3)
        behavior.stop()
        net.run(until=0.02)
        assert behavior.injected == 6  # t = 0, 1, 2, then 2.5, 3.5, 4.5 ms
        assert len(rx["h2"]) == 6

    def test_injection_requires_attach(self):
        behavior = PacketInjectionBehavior(lambda i: None, 1, 1e-3)
        with pytest.raises(RuntimeError):
            behavior.start()


class TestDos:
    def test_replay_flood_amplifies(self):
        net, s1, h1, h2, h3, rx = rig()
        behavior = ReplayFloodBehavior(amplification=4)
        behavior.attach(s1)
        h1.send(udp(h1, h2))
        net.run()
        assert len(rx["h2"]) == 5  # original + 4 replays
        assert behavior.replayed == 4

    def test_replay_flood_validation(self):
        with pytest.raises(ValueError):
            ReplayFloodBehavior(amplification=0)

    def test_generator_flood(self):
        # "generate a very large number of packets": an injector on a
        # 1 ms period is a 1000 pkt/s flood
        net, s1, h1, h2, h3, rx = rig()

        def factory(i):
            return Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 9, 9, ident=i)

        behavior = PacketInjectionBehavior(
            factory, inject_port=net.port_no_between("s1", "h2"), period=1e-3
        )
        behavior.attach(s1)
        behavior.start()
        net.run(until=0.0105)
        behavior.stop()
        assert 10 <= behavior.injected <= 11

    def test_restarted_generator_flood_keeps_its_rate(self):
        net, s1, h1, h2, h3, rx = rig()

        def factory(i):
            return Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 9, 9, ident=i)

        behavior = PacketInjectionBehavior(
            factory, inject_port=net.port_no_between("s1", "h2"), period=1e-3
        )
        behavior.attach(s1)
        behavior.start()
        behavior.start()
        net.run(until=0.0095)
        assert behavior.injected == 10  # t = 0 .. 9 ms
        behavior.stop()
        net.run(until=0.03)
        assert behavior.injected == 10
        assert len(rx["h2"]) == 10

    def test_generator_flood_validation(self):
        net, s1, *_ = rig()
        behavior = PacketInjectionBehavior(lambda i: None, 1, period=0.0)
        behavior.attach(s1)
        with pytest.raises(SimulationError):
            behavior.start()

    def test_blackhole_swallows_everything(self):
        net, s1, h1, h2, h3, rx = rig()
        behavior = BlackholeBehavior()
        behavior.attach(s1)
        h1.send(udp(h1, h2))
        h2.send(udp(h2, h1, ident=1))
        net.run()
        assert rx["h1"] == [] and rx["h2"] == []
        assert behavior.swallowed == 2

    def test_selective_blackhole(self):
        net, s1, h1, h2, h3, rx = rig()
        BlackholeBehavior(selector=match_dst_mac(h2.mac)).attach(s1)
        h1.send(udp(h1, h2))
        h1.send(udp(h1, h3, ident=1))
        net.run()
        assert rx["h2"] == [] and len(rx["h3"]) == 1
