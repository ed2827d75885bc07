"""Tests for hosts: demux, echo responder, CPU model, taps, blocking."""

import pytest

from repro.net.packet import Packet
from repro.net.topology import Network
from repro.net.node import NetworkError


def two_hosts(stack_delay=0.0, **host_kwargs):
    net = Network(seed=1)
    h1 = net.add_host("h1", stack_delay=stack_delay, **host_kwargs)
    h2 = net.add_host("h2", stack_delay=stack_delay, **host_kwargs)
    net.connect(h1, h2)
    return net, h1, h2


class TestDemux:
    def test_udp_handler_by_port(self):
        net, h1, h2 = two_hosts()
        got = []
        h2.bind_udp(5001, got.append)
        h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001, payload=b"x"))
        h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 9999, payload=b"y"))
        net.run()
        assert len(got) == 1 and got[0].payload == b"x"

    def test_tcp_handler_by_port(self):
        net, h1, h2 = two_hosts()
        got = []
        h2.bind_tcp(80, got.append)
        h1.send(Packet.tcp(h1.mac, h2.mac, h1.ip, h2.ip, 1234, 80))
        net.run()
        assert len(got) == 1

    def test_double_bind_rejected(self):
        net, _h1, h2 = two_hosts()
        h2.bind_udp(5001, lambda p: None)
        with pytest.raises(NetworkError):
            h2.bind_udp(5001, lambda p: None)
        h2.bind_tcp(80, lambda p: None)
        with pytest.raises(NetworkError):
            h2.bind_tcp(80, lambda p: None)

    def test_unbind_allows_rebinding(self):
        net, _h1, h2 = two_hosts()
        h2.bind_udp(5001, lambda p: None)
        h2.unbind_udp(5001)
        h2.bind_udp(5001, lambda p: None)  # no error

    def test_raw_handler_sees_everything(self):
        net, h1, h2 = two_hosts()
        got = []
        h2.bind_raw(got.append)
        h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001))
        h1.send(Packet.tcp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 80))
        net.run()
        assert len(got) == 2

    def test_foreign_frames_rejected_and_counted(self):
        net, h1, h2 = two_hosts()
        wrong_mac = net.add_host("h3").mac
        h1.send(Packet.udp(h1.mac, wrong_mac, h1.ip, h2.ip, 1, 5001))
        net.run()
        assert h2.rx_foreign == 1

    def test_promiscuous_accepts_foreign(self):
        net = Network(seed=1)
        h1 = net.add_host("h1")
        h2 = net.add_host("h2", promiscuous=True)
        net.connect(h1, h2)
        got = []
        h2.bind_raw(got.append)
        other = net.add_host("h3").mac
        h1.send(Packet.udp(h1.mac, other, h1.ip, h2.ip, 1, 5001))
        net.run()
        assert len(got) == 1

    def test_broadcast_accepted(self):
        from repro.net.addresses import MacAddress

        net, h1, h2 = two_hosts()
        got = []
        h2.bind_raw(got.append)
        h1.send(Packet.udp(h1.mac, MacAddress.BROADCAST, h1.ip, h2.ip, 1, 1))
        net.run()
        assert len(got) == 1


class TestEchoResponder:
    def test_ping_reply(self):
        net, h1, h2 = two_hosts()
        replies = []
        h1.bind_icmp(replies.append)
        h1.send(Packet.icmp_echo(h1.mac, h2.mac, h1.ip, h2.ip, ident=1, seqno=1))
        net.run()
        assert len(replies) == 1
        assert replies[0].l4.is_echo_reply
        assert replies[0].payload == b""

    def test_reply_echoes_payload(self):
        net, h1, h2 = two_hosts()
        replies = []
        h1.bind_icmp(replies.append)
        h1.send(
            Packet.icmp_echo(h1.mac, h2.mac, h1.ip, h2.ip, 1, 1, payload=b"abc")
        )
        net.run()
        assert replies[0].payload == b"abc"

    def test_no_reply_to_wrong_ip(self):
        net, h1, h2 = two_hosts()
        replies = []
        h1.bind_icmp(replies.append)
        h1.send(Packet.icmp_echo(h1.mac, h2.mac, h1.ip, h1.ip, 1, 1))  # dst ip wrong
        net.run()
        assert replies == []

    def test_no_reply_to_replies(self):
        net, h1, h2 = two_hosts()
        seen = []
        h1.bind_icmp(seen.append)
        h1.send(
            Packet.icmp_echo(h1.mac, h2.mac, h1.ip, h2.ip, 1, 1, reply=True)
        )
        net.run()
        assert seen == []  # h2 silently ignores an unsolicited reply


class TestCpuModel:
    def test_stack_delay_delays_dispatch(self):
        net, h1, h2 = two_hosts(stack_delay=1e-3)
        times = []
        h2.bind_udp(5001, lambda p: times.append(net.sim.now))
        h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001))
        net.run()
        # one stack traversal on send, one on receive
        assert times[0] == pytest.approx(2e-3)

    def test_recv_cost_serialises_arrivals(self):
        net = Network(seed=1)
        h1 = net.add_host("h1")
        h2 = net.add_host("h2", recv_cost_base=1e-3)
        net.connect(h1, h2)
        times = []
        h2.bind_udp(5001, lambda p: times.append(net.sim.now))
        for _ in range(3):
            h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001))
        net.run()
        assert times == pytest.approx([1e-3, 2e-3, 3e-3])

    def test_recv_queue_bound_drops(self):
        net = Network(seed=1)
        h1 = net.add_host("h1")
        h2 = net.add_host("h2", recv_cost_base=1e-3)
        h2.recv_queue_capacity = 2
        net.connect(h1, h2)
        got = []
        h2.bind_udp(5001, got.append)
        for _ in range(5):
            h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001))
        net.run()
        assert len(got) == 2
        assert h2.rx_dropped == 3

    def test_send_waits_for_busy_cpu(self):
        net = Network(seed=1)
        h1 = net.add_host("h1")
        h2 = net.add_host("h2", recv_cost_base=1e-3)
        net.connect(h1, h2)
        sent_at = []
        h1.bind_udp(7, lambda p: sent_at.append(net.sim.now))
        # burst keeps h2's CPU busy until t=3ms; a reply queued at t=0
        # cannot depart before the CPU frees.
        for _ in range(3):
            h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001))
        h2.bind_udp(5001, lambda p: None)
        net.sim.schedule(
            0.0,
            lambda: h2.send(Packet.udp(h2.mac, h1.mac, h2.ip, h1.ip, 1, 7)),
        )
        net.run()
        assert sent_at[0] >= 3e-3

    def test_stack_jitter_varies_latency(self):
        net = Network(seed=1)
        h1 = net.add_host("h1", stack_delay=1e-4, stack_jitter=5e-5)
        h2 = net.add_host("h2")
        net.connect(h1, h2)
        times = []
        h2.bind_udp(5001, lambda p: times.append(net.sim.now))
        for i in range(10):
            net.sim.schedule(
                i * 1e-3,
                lambda: h1.send(
                    Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001,
                               ident=h1.next_ip_ident())
                ),
            )
        net.run()
        latencies = {round(t % 1e-3, 9) for t in times}
        assert len(latencies) > 1  # not all identical


class TestPorts:
    def test_port_tap_sees_received_packets(self):
        net, h1, h2 = two_hosts()
        tapped = []
        h2.port(1).taps.append(tapped.append)
        h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001))
        net.run()
        assert len(tapped) == 1

    def test_blocked_port_drops_rx(self):
        net, h1, h2 = two_hosts()
        got = []
        h2.bind_udp(5001, got.append)
        h2.port(1).block_for(1.0)
        h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001))
        net.run(until=0.5)
        assert got == []
        assert h2.port(1).blocked_drops == 1

    def test_block_expires(self):
        net, h1, h2 = two_hosts()
        got = []
        h2.bind_udp(5001, got.append)
        h2.port(1).block_for(0.1)
        net.sim.schedule(
            0.2, lambda: h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001))
        )
        net.run()
        assert len(got) == 1

    def test_port_counters(self):
        net, h1, h2 = two_hosts()
        pkt = Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001)
        h2.bind_udp(5001, lambda p: None)
        h1.send(pkt)
        net.run()
        # a frame is counted once, on the link direction it crosses
        h1_to_h2 = h1.port(1).wire_stats
        assert (h1_to_h2.tx_packets, h1_to_h2.delivered_packets) == (1, 1)
        assert h1_to_h2.delivered_bytes == pkt.wire_len

    def test_next_ip_ident_monotone_and_wrapping(self):
        net, h1, _h2 = two_hosts()
        first = h1.next_ip_ident()
        assert h1.next_ip_ident() == first + 1
        h1._ip_ident = 0xFFFF
        assert h1.next_ip_ident() == 0
