"""Tests for the OpenFlow switch datapath and control channel."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addresses import IpAddress, MacAddress
from repro.net.node import Port
from repro.net.topology import Network
from repro.net.packet import Packet, Vlan
from repro.openflow.actions import (
    PORT_CONTROLLER,
    PORT_FLOOD,
    PORT_IN_PORT,
    Output,
    SetDlDst,
    SetDlSrc,
    SetNwDst,
    SetTpSrc,
    SetVlanVid,
    StripVlan,
    flood,
    to_controller,
)
from repro.openflow.controller import Controller
from repro.openflow.match import Match
from repro.openflow.messages import (
    FLOWMOD_ADD,
    FLOWMOD_DELETE,
    FLOWMOD_DELETE_STRICT,
    FlowMod,
    PacketOut,
)
from repro.openflow.switch import OpenFlowSwitch
from repro.sim.engine import CpuResource


def three_hosts_one_switch(proc_time=0.0, **switch_kwargs):
    net = Network(seed=1)
    s1 = OpenFlowSwitch(
        net.sim, "s1", trace_bus=net.trace, proc_time=proc_time, **switch_kwargs
    )
    net.add_node(s1)
    hosts = [net.add_host(f"h{i}") for i in (1, 2, 3)]
    for host in hosts:
        net.connect(host, s1)
    return net, s1, hosts


def udp_between(a, b, dport=5001):
    return Packet.udp(a.mac, b.mac, a.ip, b.ip, 1, dport, payload=b"x")


class TestForwarding:
    def test_install_and_forward(self):
        net, s1, (h1, h2, h3) = three_hosts_one_switch()
        s1.install(Match(dl_dst=h2.mac), [Output(net.port_no_between("s1", "h2"))])
        got = []
        h2.bind_udp(5001, got.append)
        h1.send(udp_between(h1, h2))
        net.run()
        assert len(got) == 1
        assert s1.stats.forwarded == 1

    def test_no_match_without_controller_drops(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        got = []
        h2.bind_udp(5001, got.append)
        h1.send(udp_between(h1, h2))
        net.run()
        assert got == []
        assert s1.stats.dropped_no_match == 1

    def test_empty_action_list_drops(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        s1.install(Match(dl_dst=h2.mac), [])
        h1.send(udp_between(h1, h2))
        net.run()
        assert s1.stats.dropped_no_actions == 1

    def test_flood_excludes_ingress(self):
        net, s1, (h1, h2, h3) = three_hosts_one_switch()
        s1.install(Match.wildcard(), [flood()])
        h2_got, h3_got, h1_got = [], [], []
        h1.bind_raw(h1_got.append)
        h2.bind_raw(h2_got.append)
        h3.bind_raw(h3_got.append)
        h2.promiscuous = h3.promiscuous = h1.promiscuous = True
        h1.send(udp_between(h1, h2))
        net.run()
        assert len(h2_got) == 1 and len(h3_got) == 1 and len(h1_got) == 0

    def test_modify_then_output(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        s1.install(
            Match(dl_dst=h2.mac),
            [SetVlanVid(42), Output(net.port_no_between("s1", "h2"))],
        )
        got = []
        h2.bind_udp(5001, got.append)
        h1.send(udp_between(h1, h2))
        net.run()
        assert got[0].vlan.vid == 42

    def test_output_before_modify_sends_unmodified(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        s1.install(
            Match(dl_dst=h2.mac),
            [Output(net.port_no_between("s1", "h2")), SetVlanVid(42)],
        )
        got = []
        h2.bind_udp(5001, got.append)
        h1.send(udp_between(h1, h2))
        net.run()
        assert got[0].vlan is None

    def test_actions_do_not_mutate_original(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        s1.install(
            Match(dl_dst=h2.mac),
            [SetVlanVid(42), Output(net.port_no_between("s1", "h2"))],
        )
        original = udp_between(h1, h2)
        h2.bind_udp(5001, lambda p: None)
        h1.send(original)
        net.run()
        assert original.vlan is None

    def test_bad_port_output_drops(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        net.trace.start_retaining()
        s1.install(Match(dl_dst=h2.mac), [Output(99)])
        h1.send(udp_between(h1, h2))
        net.run()  # no crash; the drop is counted and traced
        assert s1.stats.dropped_bad_port == 1
        assert s1.stats.forwarded == 0
        assert net.trace.count("switch.drop") == 1

    def test_one_bad_output_of_several_still_forwards(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        s1.install(
            Match(dl_dst=h2.mac), [Output(99), Output(net.port_no_between("s1", "h2"))]
        )
        got = []
        h2.bind_udp(5001, got.append)
        h1.send(udp_between(h1, h2))
        net.run()
        assert len(got) == 1
        assert (s1.stats.forwarded, s1.stats.dropped_bad_port) == (1, 1)

    def test_in_port_output_to_unwired_port_is_traced(self):
        """Output(IN_PORT) toward a port with no link is the same drop as a
        unicast to one: counted as ``dropped_bad_port`` (not forwarded)
        and traced as ``bad_port``."""
        net, s1, _hosts = three_hosts_one_switch()
        net.trace.start_retaining()
        unwired = s1.add_port(7)
        s1.install(Match(), [Output(PORT_IN_PORT)])
        s1.receive(Packet.udp(MAC_A, MAC_B, IP_A, IP_B, 1, 2), unwired)
        assert s1.stats.dropped_bad_port == 1
        assert s1.stats.forwarded == 0
        assert bad_port_drops(net) == [7]

    def test_train_to_unwired_port_is_traced(self):
        """The train path resolves its egress once per train: a resolved
        port without a link still counts (and traces) ``bad_port`` for
        every packet, exactly as the per-packet path does."""
        from repro.traffic.udp import UdpSender

        net = Network(seed=1, batch_train=8)
        net.trace.start_retaining()
        s1 = OpenFlowSwitch(net.sim, "s1", trace_bus=net.trace)
        net.add_node(s1)
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        net.connect(h1, s1)
        net.connect(h2, s1)
        s1.add_port(9)
        s1.install(Match(dl_dst=h2.mac), [Output(9)])
        sender = UdpSender(h1, h2.mac, h2.ip, 5001, rate_bps=100e6)
        sender.start(duration=0.002)
        net.run()
        assert sender.sent > 8  # at least one train of siblings
        assert s1.stats.dropped_bad_port == sender.sent
        assert s1.stats.forwarded == 0
        assert bad_port_drops(net) == [9] * sender.sent

    @pytest.mark.parametrize("train", [1, 8])
    @pytest.mark.parametrize("blocked", ["egress", "ingress"])
    def test_blocked_port_counts_every_refused_frame(self, train, blocked):
        """A blocked port counts what it refuses to send (the switch's
        egress) or to receive (the host's ingress), on both tiers."""
        from repro.traffic.udp import UdpSender

        net = Network(seed=1, batch_train=train)
        s1 = OpenFlowSwitch(net.sim, "s1", trace_bus=net.trace)
        net.add_node(s1)
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        net.connect(h1, s1)
        net.connect(h2, s1)
        out_no = net.port_no_between("s1", "h2")
        s1.install(Match(dl_dst=h2.mac), [Output(out_no)])
        port = s1.ports[out_no] if blocked == "egress" else h2.port(1)
        port.block_for(1.0)
        got = []
        h2.bind_udp(5001, got.append)
        sender = UdpSender(h1, h2.mac, h2.ip, 5001, rate_bps=100e6)
        sender.start(duration=0.002)
        net.run()
        assert sender.sent > 8 and got == []
        assert port.blocked_drops == sender.sent
        assert s1.stats.forwarded == sender.sent


MAC_A, MAC_B = MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02")
IP_A, IP_B = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")


def bad_port_drops(net) -> list:
    return [
        record.data["port"]
        for record in net.trace.select("switch.drop")
        if record.data["reason"] == "bad_port"
    ]


# ----------------------------------------------------------------------
# who owns the packet: the datapath emits what it was handed only when
# its action list writes nothing
# ----------------------------------------------------------------------
WRITES = st.one_of(
    st.builds(SetVlanVid, st.integers(1, 4094)),
    st.just(StripVlan()),
    st.builds(SetDlSrc, st.integers(0, 2**48 - 1).map(MacAddress)),
    st.builds(SetDlDst, st.integers(0, 2**48 - 1).map(MacAddress)),
    st.builds(SetNwDst, st.integers(0, 2**32 - 1).map(IpAddress)),
    st.builds(SetTpSrc, st.integers(0, 0xFFFF)),
)
#: ports 1-3 wired, 7 unwired, 99 absent, and the three virtual ports
OUTPUTS = st.builds(
    Output, st.sampled_from([1, 2, 3, 7, 99, PORT_FLOOD, PORT_CONTROLLER, PORT_IN_PORT])
)
ACTION_LISTS = st.one_of(
    st.lists(OUTPUTS, min_size=1, max_size=4),  # writes nothing
    st.lists(st.one_of(OUTPUTS, WRITES), min_size=1, max_size=5),
)


def emitting_switch():
    """A switch on three hosts, plus an unwired port 7."""
    net, s1, _hosts = three_hosts_one_switch()
    s1.add_port(7)
    return s1


@settings(max_examples=200, deadline=None)
@given(actions=ACTION_LISTS, vlan=st.booleans())
def test_datapath_emits_the_packet_it_owns_only_when_nothing_writes(actions, vlan):
    packet = Packet.udp(
        MAC_A, MAC_B, IP_A, IP_B, 1, 2, payload=b"owned",
        vlan=Vlan(5) if vlan else None,
    )
    before = packet.to_bytes()
    reference, owner = emitting_switch(), emitting_switch()
    sent = {reference: [], owner: []}
    with pytest.MonkeyPatch.context() as patch:
        # a port records what it is handed instead of transmitting it
        patch.setattr(
            Port, "send", lambda port, p: sent[port.node].append((port.port_no, p))
        )
        # the reference: the same list applied for a caller that keeps its packet
        reference.apply_actions(packet.copy(), actions, 1)
        owner.install(Match(), actions)
        owner._process(packet, 1)
    expected, emitted = sent[reference], sent[owner]

    assert packet.to_bytes() == before  # handed over, never written
    assert [(no, p.to_bytes()) for no, p in emitted] == [
        (no, p.to_bytes()) for no, p in expected
    ]
    assert len({id(p) for _no, p in emitted}) == len(emitted)
    handed_on = [p for _no, p in emitted if p is packet]
    if any(type(action) is not Output for action in actions):
        assert handed_on == []  # every write went to a private copy
    elif actions[-1].port in (1, 2, 3, PORT_IN_PORT):  # in_port 1 is wired
        assert handed_on == [packet] and emitted[-1][1] is packet
    else:  # flood, controller or a port without a link: copies only
        assert handed_on == []


class TestServiceModel:
    def test_proc_time_delays_forwarding(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch(proc_time=1e-3)
        s1.install(Match(dl_dst=h2.mac), [Output(net.port_no_between("s1", "h2"))])
        times = []
        h2.bind_udp(5001, lambda p: times.append(net.sim.now))
        h1.send(udp_between(h1, h2))
        net.run()
        assert times[0] == pytest.approx(1e-3)

    def test_service_is_single_server(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch(proc_time=1e-3)
        s1.install(Match(dl_dst=h2.mac), [Output(net.port_no_between("s1", "h2"))])
        times = []
        h2.bind_udp(5001, lambda p: times.append(net.sim.now))
        for _ in range(3):
            h1.send(udp_between(h1, h2))
        net.run()
        assert times == pytest.approx([1e-3, 2e-3, 3e-3])

    def test_per_byte_cost(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch(
            proc_time=0.0, proc_per_byte=1e-6
        )
        s1.install(Match(dl_dst=h2.mac), [Output(net.port_no_between("s1", "h2"))])
        times = []
        h2.bind_udp(5001, lambda p: times.append(net.sim.now))
        pkt = udp_between(h1, h2)
        h1.send(pkt)
        net.run()
        assert times[0] == pytest.approx(pkt.wire_len * 1e-6)

    def test_service_queue_overflow_drops(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch(
            proc_time=1e-3, service_queue_capacity=2
        )
        s1.install(Match(dl_dst=h2.mac), [Output(net.port_no_between("s1", "h2"))])
        got = []
        h2.bind_udp(5001, got.append)
        for _ in range(5):
            h1.send(udp_between(h1, h2))
        net.run()
        assert len(got) == 2
        assert s1.stats.dropped_service_queue == 3

    def test_shared_cpu_serialises_two_switches(self):
        net = Network(seed=1)
        cpu = CpuResource("shared")
        s1 = OpenFlowSwitch(net.sim, "s1", proc_time=1e-3, cpu=cpu)
        s2 = OpenFlowSwitch(net.sim, "s2", proc_time=1e-3, cpu=cpu)
        net.add_node(s1)
        net.add_node(s2)
        h1, h2, h3, h4 = (net.add_host(f"h{i}") for i in range(1, 5))
        net.connect(h1, s1)
        net.connect(s1, h2)
        net.connect(h3, s2)
        net.connect(s2, h4)
        s1.install(Match(dl_dst=h2.mac), [Output(net.port_no_between("s1", "h2"))])
        s2.install(Match(dl_dst=h4.mac), [Output(net.port_no_between("s2", "h4"))])
        times = []
        h2.bind_udp(5001, lambda p: times.append(("s1", net.sim.now)))
        h4.bind_udp(5001, lambda p: times.append(("s2", net.sim.now)))
        h1.send(udp_between(h1, h2))
        h3.send(udp_between(h3, h4))
        net.run()
        # the second packet waits for the shared CPU
        assert sorted(t for _, t in times) == pytest.approx([1e-3, 2e-3])


class RecordingController(Controller):
    def __init__(self, sim, **kwargs):
        super().__init__(sim, **kwargs)
        self.packet_ins = []
        self.flow_removed = []

    def on_packet_in(self, switch, event):
        self.packet_ins.append(event)

    def on_flow_removed(self, switch, event):
        self.flow_removed.append(event)


class TestControlChannel:
    def test_table_miss_sends_packet_in(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        ctl = RecordingController(net.sim)
        s1.connect_controller(ctl)
        h1.send(udp_between(h1, h2))
        net.run()
        assert len(ctl.packet_ins) == 1
        event = ctl.packet_ins[0]
        assert event.in_port == net.port_no_between("s1", "h1")
        assert event.buffer_id is not None

    def test_channel_latency_applies_both_ways(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        ctl = RecordingController(net.sim)
        s1.connect_controller(ctl, latency=1e-3)
        got = []
        h2.bind_udp(5001, got.append)

        out_port = net.port_no_between("s1", "h2")
        original_handler = ctl.on_packet_in

        def reactive(switch, event):
            original_handler(switch, event)
            ctl.send(
                switch, PacketOut(packet=event.packet, actions=[Output(out_port)])
            )

        ctl.on_packet_in = reactive
        h1.send(udp_between(h1, h2))
        net.run()
        assert len(got) == 1
        assert net.sim.now >= 2e-3

    def test_packet_out_with_buffer_id(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        ctl = RecordingController(net.sim)
        s1.connect_controller(ctl)
        h1.send(udp_between(h1, h2))
        net.run()
        event = ctl.packet_ins[0]
        got = []
        h2.bind_udp(5001, got.append)
        ctl.send(
            s1,
            PacketOut(
                packet=None,
                actions=[Output(net.port_no_between("s1", "h2"))],
                buffer_id=event.buffer_id,
            ),
        )
        net.run()
        assert len(got) == 1

    def test_flow_mod_add_and_delete(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        ctl = RecordingController(net.sim)
        s1.connect_controller(ctl)
        match = Match(dl_dst=h2.mac)
        ctl.send(
            s1, FlowMod(FLOWMOD_ADD, match, [Output(2)], priority=5)
        )
        net.run()
        assert len(s1.table) == 1
        ctl.send(s1, FlowMod(FLOWMOD_DELETE, match))
        net.run()
        assert len(s1.table) == 0
        assert len(ctl.flow_removed) == 1

    def test_flow_mod_delete_strict(self):
        net, s1, _hosts = three_hosts_one_switch()
        ctl = RecordingController(net.sim)
        s1.connect_controller(ctl)
        match = Match.wildcard()
        ctl.send(s1, FlowMod(FLOWMOD_ADD, match, [Output(1)], priority=1))
        ctl.send(s1, FlowMod(FLOWMOD_ADD, match, [Output(1)], priority=2))
        ctl.send(s1, FlowMod(FLOWMOD_DELETE_STRICT, match, priority=2))
        net.run()
        assert len(s1.table) == 1
        assert s1.table.entries[0].priority == 1

    def test_idle_timeout_triggers_flow_removed(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        ctl = RecordingController(net.sim)
        s1.connect_controller(ctl)
        s1.install(
            Match(dl_dst=h2.mac),
            [Output(net.port_no_between("s1", "h2"))],
            idle_timeout=0.01,
        )
        matched = udp_between(h1, h2)
        h1.send(matched)
        # traffic long after the timeout forces a sweep
        net.sim.schedule(0.1, lambda: h1.send(udp_between(h1, h2)))
        net.run()
        assert len(ctl.flow_removed) == 1
        removed = ctl.flow_removed[0]
        assert removed.reason == "idle"
        # the entry's own counters ride the removal
        assert (removed.packet_count, removed.byte_count) == (1, matched.wire_len)

    def test_output_to_controller_action(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        ctl = RecordingController(net.sim)
        s1.connect_controller(ctl)
        s1.install(Match(dl_dst=h2.mac), [to_controller()])
        h1.send(udp_between(h1, h2))
        net.run()
        assert len(ctl.packet_ins) == 1
        assert ctl.packet_ins[0].reason == "action"

    def test_a_statistics_request_is_an_unknown_message(self):
        # the link directions count every frame: a switch answers no
        # OpenFlow statistics request, and a controller handles no reply
        @dataclass(frozen=True)
        class StatsRequest:
            datapath_id: int

        @dataclass(frozen=True)
        class StatsReply:
            datapath_id: int

        net, s1, _hosts = three_hosts_one_switch()
        ctl = RecordingController(net.sim, trace_bus=net.trace)
        s1.connect_controller(ctl)
        net.trace.start_retaining()
        ctl.send(s1, StatsRequest(s1.datapath_id))
        net.run()
        unknown = net.trace.select(topic="switch.unknown_message")
        assert [r.data["message"] for r in unknown] == ["StatsRequest"]
        assert ctl.messages_received == 0  # no reply was sent
        ctl.receive_from_switch(s1, StatsReply(s1.datapath_id))
        assert ctl.messages_unknown == 1
        assert (ctl.packet_ins, ctl.flow_removed) == ([], [])

    def test_controller_proc_time_queues_messages(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        ctl = RecordingController(net.sim, proc_time=1e-3)
        s1.connect_controller(ctl)
        arrival_times = []
        inner = ctl.on_packet_in

        def timed(switch, event):
            arrival_times.append(net.sim.now)
            inner(switch, event)

        ctl.on_packet_in = timed
        for i in range(3):
            h1.send(
                Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001,
                           ident=h1.next_ip_ident())
            )
        net.run()
        assert arrival_times == pytest.approx([1e-3, 2e-3, 3e-3])


class TestPortBlocking:
    def test_block_port_drops_ingress(self):
        net, s1, (h1, h2, _) = three_hosts_one_switch()
        s1.install(Match(dl_dst=h2.mac), [Output(net.port_no_between("s1", "h2"))])
        got = []
        h2.bind_udp(5001, got.append)
        s1.block_port(net.port_no_between("s1", "h1"), duration=1.0)
        h1.send(udp_between(h1, h2))
        net.run(until=0.5)
        assert got == []

    def test_datapath_ids_unique(self):
        net, s1, _ = three_hosts_one_switch()
        s2 = OpenFlowSwitch(net.sim, "sx")
        assert s1.datapath_id != s2.datapath_id
