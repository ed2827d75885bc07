"""Tests for the UDP CBR sender/receiver (the iperf -u analogue)."""

import pytest

from repro.net.topology import Network
from repro.traffic.udp import UdpReceiver, UdpSender


def rig(rate_bps=1e6, payload_size=100, send_cost=0.0, loss=0.0):
    net = Network(seed=5)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    net.connect(h1, h2, rate_bps=1e9, loss=loss, queue_capacity=10_000)
    receiver = UdpReceiver(h2, 5001)
    sender = UdpSender(
        h1, h2.mac, h2.ip, 5001,
        rate_bps=rate_bps, payload_size=payload_size, send_cost=send_cost,
    )
    return net, sender, receiver


class TestSender:
    def test_paces_at_target_rate(self):
        net, sender, receiver = rig(rate_bps=1e6, payload_size=125)
        sender.start(duration=0.1)
        net.run(until=0.2)
        # 1 Mbit/s of 1000-bit payloads = 1000 pps for 0.1 s
        assert sender.sent == pytest.approx(100, abs=2)

    def test_send_cost_caps_rate(self):
        net, sender, receiver = rig(rate_bps=1e9, payload_size=125, send_cost=1e-3)
        assert sender.interval == 1e-3
        sender.start(duration=0.05)
        net.run(until=0.1)
        assert sender.sent == pytest.approx(50, abs=2)

    def test_stop_halts(self):
        net, sender, receiver = rig()
        sender.start(duration=1.0)
        net.sim.schedule(0.01, sender.stop)
        net.run(until=0.1)
        assert sender.sent < 200

    def test_payload_size_floor(self):
        net, sender, receiver = rig()
        with pytest.raises(ValueError):
            UdpSender(net.host("h1"), None, None, 1, rate_bps=1e6, payload_size=4)
        with pytest.raises(ValueError):
            UdpSender(net.host("h1"), None, None, 1, rate_bps=0)


class TestReceiver:
    def test_clean_flow_no_loss(self):
        net, sender, receiver = rig()
        sender.start(duration=0.05)
        net.run(until=0.2)
        result = receiver.result(sender, 0.05)
        assert result.lost == 0
        assert result.loss_rate == 0.0
        assert result.received_unique == sender.sent

    def test_throughput_matches_offered(self):
        net, sender, receiver = rig(rate_bps=2e6, payload_size=250)
        sender.start(duration=0.1)
        net.run(until=0.3)
        result = receiver.result(sender, 0.1)
        assert result.throughput_mbps == pytest.approx(2.0, rel=0.05)
        assert result.offered_mbps == pytest.approx(2.0, rel=0.05)

    def test_loss_detected(self):
        net, sender, receiver = rig(loss=0.2)
        sender.start(duration=0.1)
        net.run(until=0.3)
        result = receiver.result(sender, 0.1)
        assert 0.05 < result.loss_rate < 0.4

    def test_duplicates_counted_once(self):
        net, sender, receiver = rig()
        h1, h2 = net.host("h1"), net.host("h2")
        from repro.net.packet import Packet
        import struct

        payload = struct.pack("!IQ", 1, 1000) + b"\x00" * 88
        packet = Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 50000, 5001,
                            payload=payload)
        for _ in range(3):
            h1.send(packet.copy())
        net.run()
        assert receiver.received_unique == 1
        assert receiver.duplicates == 2

    def test_reordering_counted(self):
        net, sender, receiver = rig()
        h1, h2 = net.host("h1"), net.host("h2")
        from repro.net.packet import Packet
        import struct

        def mk(seq):
            payload = struct.pack("!IQ", seq, 1000) + b"\x00" * 88
            return Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 50000, 5001,
                              payload=payload, ident=seq)

        for seq in (0, 2, 1):
            h1.send(mk(seq))
        net.run()
        assert receiver.reordered == 1

    def test_malformed_payload_ignored(self):
        net, sender, receiver = rig()
        h1, h2 = net.host("h1"), net.host("h2")
        from repro.net.packet import Packet

        h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 5, 5001, payload=b"xx"))
        net.run()
        assert receiver.received_unique == 0

    def test_close_unbinds(self):
        net, sender, receiver = rig()
        receiver.close()
        net.host("h2").bind_udp(5001, lambda p: None)  # no conflict
