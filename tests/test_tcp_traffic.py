"""Tests for the Reno TCP implementation."""

import pytest

from repro.net import Network, Packet
from repro.traffic import TcpReceiver, TcpSender


def rig(rate_bps=100e6, delay=100e-6, loss=0.0, queue_capacity=1000, seed=6):
    net = Network(seed=seed)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    net.connect(
        h1, h2, rate_bps=rate_bps, delay=delay, loss=loss,
        queue_capacity=queue_capacity,
    )
    receiver = TcpReceiver(h2, 5001)
    sender = TcpSender(h1, h2.mac, h2.ip, 5001, min_rto=0.01)
    return net, sender, receiver


class TestHandshake:
    def test_connection_establishes(self):
        net, sender, receiver = rig()
        sender.start(duration=0.01)
        net.run(until=0.005)
        assert sender.connected
        assert receiver.peer_port == sender.sport

    def test_syn_retransmitted_on_loss(self):
        net, sender, receiver = rig()
        # drop the first SYN by blocking h2 briefly
        net.host("h2").port(1).block_for(0.02)
        sender.start(duration=0.5)
        net.run(until=0.4)
        assert sender.connected

    def test_second_connection_attempt_ignored(self):
        net, sender, receiver = rig()
        sender.start(duration=0.05)
        net.run(until=0.02)
        h3 = net.add_host("h3")
        # a stray SYN from another port is ignored by the busy receiver
        stray = Packet.tcp(
            net.host("h1").mac, net.host("h2").mac,
            net.host("h1").ip, net.host("h2").ip,
            49999, 5001, seq=0, flags=0x02,
        )
        net.host("h1").send(stray)
        net.run(until=0.05)
        assert receiver.peer_port == sender.sport


class TestBulkTransfer:
    def test_clean_path_reaches_link_capacity(self):
        net, sender, receiver = rig(rate_bps=100e6)
        sender.start(duration=0.2)
        net.run(until=0.3)
        result = sender.result(0.2)
        assert result.throughput_mbps > 80
        assert result.timeouts == 0
        assert receiver.bytes_in_order == result.bytes_acked

    def test_slow_start_doubles_window(self):
        net, sender, receiver = rig(rate_bps=1e9, delay=1e-3)
        sender.start(duration=0.02)
        net.run(until=0.004)
        cwnd_early = sender.cwnd
        net.run(until=0.010)
        assert sender.cwnd > cwnd_early

    def test_rtt_estimation_converges(self):
        net, sender, receiver = rig(delay=500e-6)
        sender.start(duration=0.1)
        net.run(until=0.2)
        assert sender.rtt_samples > 5
        # at least the two propagation delays; queueing inflates above
        assert sender.srtt > 0.9e-3

    def test_bytes_acked_consistent(self):
        net, sender, receiver = rig()
        sender.start(duration=0.05)
        net.run(until=0.1)
        result = sender.result(0.05)
        assert result.bytes_acked % sender.mss == 0
        assert result.bytes_acked > 0


class TestLossRecovery:
    def test_random_loss_recovers_with_fast_retransmit(self):
        net, sender, receiver = rig(loss=0.01, rate_bps=50e6)
        sender.start(duration=0.3)
        net.run(until=0.5)
        result = sender.result(0.3)
        assert result.bytes_acked > 0
        assert result.fast_retransmits + result.timeouts > 0
        assert result.throughput_mbps > 5

    def test_heavy_loss_still_makes_progress(self):
        net, sender, receiver = rig(loss=0.05, rate_bps=50e6)
        sender.start(duration=0.3)
        net.run(until=0.6)
        assert sender.result(0.3).bytes_acked > 10 * sender.mss

    def test_loss_reduces_throughput(self):
        net_clean, sender_clean, _ = rig(rate_bps=50e6)
        sender_clean.start(duration=0.2)
        net_clean.run(until=0.4)
        net_lossy, sender_lossy, _ = rig(loss=0.03, rate_bps=50e6)
        sender_lossy.start(duration=0.2)
        net_lossy.run(until=0.4)
        assert (
            sender_lossy.result(0.2).throughput_mbps
            < sender_clean.result(0.2).throughput_mbps
        )

    def test_timeout_resets_cwnd(self):
        net, sender, receiver = rig(rate_bps=50e6)
        sender.start(duration=0.3)
        net.run(until=0.05)
        # black out the path long enough to force an RTO
        net.host("h2").port(1).block_for(0.05)
        net.run(until=0.12)
        assert sender.timeouts >= 1
        net.run(until=0.5)
        assert sender.result(0.3).bytes_acked > 0  # recovered after RTO


class TestDuplicationResilience:
    def duplicate_rig(self, copies=3):
        """Hosts joined by two endpoints in dup mode (a Dup-style path):
        each duplicates every frame onto ``copies`` parallel branch links
        and merges what the other sent back out, in both directions."""
        from repro.core import MODE_DUP, CombinerEndpoint

        net = Network(seed=7)
        h1 = net.add_host("h1")
        h2 = net.add_host("h2")
        hub_out = CombinerEndpoint(net.sim, "hubx", trace_bus=net.trace, mode=MODE_DUP)
        merge = CombinerEndpoint(net.sim, "merge", trace_bus=net.trace, mode=MODE_DUP)
        net.add_node(hub_out)
        net.add_node(merge)
        link = dict(rate_bps=100e6, delay=50e-6, queue_capacity=1000)
        net.connect(h1, hub_out, **link)
        net.connect(h2, merge, **link)
        for branch in range(copies):
            wire = net.connect(hub_out, merge, **link)
            hub_out.assign_branch(wire.a.port_no, branch)
            merge.assign_branch(wire.b.port_no, branch)
        receiver = TcpReceiver(h2, 5001)
        sender = TcpSender(h1, h2.mac, h2.ip, 5001, min_rto=0.01)
        return net, sender, receiver

    def test_receiver_deduplicates_segments(self):
        net, sender, receiver = self.duplicate_rig()
        sender.start(duration=0.05)
        net.run(until=0.1)
        assert receiver.duplicate_segments > 0
        assert receiver.bytes_in_order == sender.result(0.05).bytes_acked

    def test_no_spurious_fast_retransmits_from_duplication(self):
        net, sender, receiver = self.duplicate_rig()
        sender.start(duration=0.1)
        net.run(until=0.2)
        result = sender.result(0.1)
        # DSACK + SACK-novelty handling: duplication alone must not
        # trigger loss recovery
        assert result.fast_retransmits == 0
        assert result.timeouts == 0
        assert result.bytes_acked > 0


class TestReceiver:
    def test_out_of_order_buffered_and_drained(self):
        net, sender, receiver = rig()
        h1, h2 = net.host("h1"), net.host("h2")
        # hand-craft a connection: SYN, then segments out of order
        syn = Packet.tcp(h1.mac, h2.mac, h1.ip, h2.ip, 40001, 5001, seq=0,
                         flags=0x02)
        h1.send(syn)
        net.run(until=0.01)

        def seg(seq, payload):
            return Packet.tcp(h1.mac, h2.mac, h1.ip, h2.ip, 40001, 5001,
                              seq=seq, flags=0x10, payload=payload,
                              ident=h1.next_ip_ident())

        h1.send(seg(1 + 100, b"b" * 100))  # arrives first (gap)
        net.run(until=0.02)
        assert receiver.out_of_order_segments == 1
        assert receiver.bytes_in_order == 0
        h1.send(seg(1, b"a" * 100))
        net.run(until=0.03)
        assert receiver.bytes_in_order == 200
        assert receiver.rcv_nxt == 201

    def test_fin_acknowledged(self):
        net, sender, receiver = rig()
        h1, h2 = net.host("h1"), net.host("h2")
        acks = []
        h1.bind_tcp(40001, acks.append)
        h1.send(Packet.tcp(h1.mac, h2.mac, h1.ip, h2.ip, 40001, 5001, seq=0,
                           flags=0x02))
        net.run(until=0.01)
        h1.send(Packet.tcp(h1.mac, h2.mac, h1.ip, h2.ip, 40001, 5001, seq=1,
                           flags=0x01 | 0x10, ident=1))
        net.run(until=0.02)
        assert acks[-1].l4.ack == 2  # FIN consumed one sequence number


class TestBoundedTransfer:
    def test_exact_bytes_delivered_then_fin(self):
        net, _sender, receiver = rig()
        h1, h2 = net.host("h1"), net.host("h2")
        sender = TcpSender(h1, h2.mac, h2.ip, 5001, sport=40002,
                           total_bytes=100_000, min_rto=0.01)
        done = []
        sender.start(duration=1.0, done_cb=lambda: done.append(net.sim.now))
        net.run(until=0.5)
        assert sender.fin_sent and sender.fin_acked
        assert done, "done callback fires when the FIN is acknowledged"
        assert sender.result(0.5).bytes_acked == 100_000
        assert receiver.bytes_in_order == 100_000

    def test_non_mss_multiple_transfer(self):
        net, _sender, receiver = rig()
        h1, h2 = net.host("h1"), net.host("h2")
        sender = TcpSender(h1, h2.mac, h2.ip, 5001, sport=40002,
                           total_bytes=5_000, min_rto=0.01)
        sender.start(duration=1.0)
        net.run(until=0.5)
        assert receiver.bytes_in_order == 5_000  # 3 full MSS + 620 bytes

    def test_bounded_transfer_survives_loss(self):
        net, _sender, receiver = rig(loss=0.02, seed=9)
        h1, h2 = net.host("h1"), net.host("h2")
        sender = TcpSender(h1, h2.mac, h2.ip, 5001, sport=40002,
                           total_bytes=200_000, min_rto=0.01)
        sender.start(duration=2.0)
        net.run(until=2.5)
        assert sender.fin_acked
        assert receiver.bytes_in_order == 200_000

    def test_tiny_transfer(self):
        net, _sender, receiver = rig()
        h1, h2 = net.host("h1"), net.host("h2")
        sender = TcpSender(h1, h2.mac, h2.ip, 5001, sport=40002,
                           total_bytes=1, min_rto=0.01)
        sender.start(duration=0.5)
        net.run(until=0.3)
        assert receiver.bytes_in_order == 1
        assert sender.fin_acked

    def test_bounded_transfer_through_combiner(self):
        from repro.core import CombinerChainParams, CompareConfig, build_combiner_chain
        from repro.net import Network

        net = Network(seed=10)
        chain = build_combiner_chain(
            net, "nc",
            CombinerChainParams(k=3, compare=CompareConfig(k=3, buffer_timeout=2e-3)),
        )
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        net.connect(h1, chain.endpoint_a)
        net.connect(h2, chain.endpoint_b)
        chain.install_mac_route(h2.mac, toward="b")
        chain.install_mac_route(h1.mac, toward="a")
        receiver = TcpReceiver(h2, 5001)
        sender = TcpSender(h1, h2.mac, h2.ip, 5001, total_bytes=50_000,
                           min_rto=0.01)
        sender.start(duration=1.0)
        net.run(until=0.5)
        assert sender.fin_acked
        assert receiver.bytes_in_order == 50_000
