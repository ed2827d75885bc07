"""Edge cases across modules that the mainline tests don't reach."""

import random

import pytest

from repro.analysis.records import ExperimentRecord
from repro.net.addresses import MacAddress
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.openflow.actions import PORT_IN_PORT, Output
from repro.openflow.match import Match
from repro.openflow.messages import PacketOut
from repro.openflow.switch import OpenFlowSwitch


def pair_through_switch():
    net = Network(seed=61)
    net.trace.start_retaining()  # the switch cases read its records
    s1 = OpenFlowSwitch(net.sim, "s1", trace_bus=net.trace)
    net.add_node(s1)
    h1 = net.add_host("h1", promiscuous=True)
    h2 = net.add_host("h2", promiscuous=True)
    net.connect(h1, s1)
    net.connect(h2, s1)
    return net, s1, h1, h2


class TestSwitchEdges:
    def test_in_port_virtual_output_hairpins(self):
        net, s1, h1, h2 = pair_through_switch()
        s1.install(Match.wildcard(), [Output(PORT_IN_PORT)])
        got = []
        h1.bind_raw(got.append)
        h1.send(Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 2))
        net.run()
        assert len(got) == 1  # bounced straight back out the ingress

    def test_packet_out_with_stale_buffer_id(self):
        net, s1, h1, h2 = pair_through_switch()
        s1.handle_controller_message(
            PacketOut(packet=None, actions=[Output(1)], buffer_id=12345)
        )
        net.run()
        assert net.trace.count("switch.bad_buffer") == 1

    def test_packet_out_with_neither_packet_nor_buffer(self):
        net, s1, h1, h2 = pair_through_switch()
        s1.handle_controller_message(PacketOut(packet=None, actions=[Output(1)]))
        net.run()
        assert net.trace.count("switch.bad_packet_out") == 1

    def test_unknown_controller_message_traced(self):
        net, s1, h1, h2 = pair_through_switch()
        s1.handle_controller_message(object())
        assert net.trace.count("switch.unknown_message") == 1

    def test_packet_buffer_eviction_fifo(self):
        net, s1, h1, h2 = pair_through_switch()
        s1._packet_buffer_capacity = 2
        ids = [
            s1._buffer_packet(
                Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 2, ident=i), 1
            )
            for i in range(4)
        ]
        assert len(s1._packet_buffer) == 2
        assert ids[0] not in s1._packet_buffer
        assert ids[3] in s1._packet_buffer

    def test_packet_buffer_evicts_the_smallest_id_across_packet_outs(self):
        """Buffering evicts the oldest entry; with PacketOuts consuming
        random buffered ids in between, that is still the smallest id the
        buffer holds (a model that evicts by ``min`` agrees throughout)."""
        net, s1, h1, h2 = pair_through_switch()
        s1._packet_buffer_capacity = 8
        rng = random.Random(7)
        model = {}
        for i in range(400):
            if model and rng.random() < 0.4:
                buffer_id = rng.choice(sorted(model))
                s1.handle_controller_message(
                    PacketOut(packet=None, actions=[Output(2)], buffer_id=buffer_id)
                )
                del model[buffer_id]
            else:
                if len(model) >= 8:
                    del model[min(model)]
                packet = Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 2, ident=i)
                model[s1._buffer_packet(packet, 1)] = packet
            assert sorted(s1._packet_buffer) == sorted(model)
        net.run()
        assert net.trace.count("switch.bad_buffer") == 0

    def test_flow_mod_with_unknown_command_traced(self):
        from repro.openflow.messages import FlowMod

        net, s1, h1, h2 = pair_through_switch()
        s1.handle_controller_message(
            FlowMod(command="upsert", match=Match.wildcard())
        )
        assert net.trace.count("switch.bad_flow_mod") == 1


class TestNodeEdges:
    def test_send_on_unwired_port_is_noop(self):
        from repro.net.addresses import IpAddress

        net = Network(seed=62)
        s1 = OpenFlowSwitch(net.sim, "s1")
        net.add_node(s1)
        port = s1.add_port(5)
        port.send(
            Packet.udp(MacAddress(1), MacAddress(2), IpAddress(1), IpAddress(2), 1, 2)
        )
        # nothing to assert beyond "no crash"; the port has no link
        assert not port.is_wired

    def test_duplicate_port_number_rejected(self):
        from repro.net.node import NetworkError

        net = Network(seed=63)
        s1 = OpenFlowSwitch(net.sim, "s1")
        s1.add_port(3)
        with pytest.raises(NetworkError):
            s1.add_port(3)

    def test_port_lookup_error(self):
        from repro.net.node import NetworkError

        net = Network(seed=64)
        s1 = OpenFlowSwitch(net.sim, "s1")
        with pytest.raises(NetworkError):
            s1.port(42)

    def test_peer_property(self):
        net, s1, h1, h2 = pair_through_switch()
        assert h1.port(1).peer.node is s1
        unwired = s1.add_port(9)
        assert unwired.peer is None


class TestRecordsSerialisation:
    def test_json_roundtrip(self):
        record = ExperimentRecord("Table I", "averages")
        record.add("linespeed", "tcp_mbps", 481.0, "Mbit/s",
                   paper_value=474.0, loss_rate=0.001)
        data = record.to_json()
        clone = ExperimentRecord.from_dict(__import__("json").loads(data))
        assert clone.experiment == "Table I"
        assert clone.value_of("linespeed", "tcp_mbps") == 481.0
        assert clone.rows[0].paper_value == 474.0
        assert clone.rows[0].detail["loss_rate"] == 0.001

    def test_to_dict_is_plain_data(self):
        record = ExperimentRecord("x", "y")
        record.add("a", "m", 1.5, "u")
        data = record.to_dict()
        import json

        json.dumps(data)  # must be JSON-serialisable as-is
