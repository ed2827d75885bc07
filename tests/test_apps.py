"""Tests for controller applications: the learning switch."""

from repro.apps.learning import LearningSwitchApp
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.openflow.switch import OpenFlowSwitch


def line_topology(n_switches=1, n_hosts=2):
    net = Network(seed=1)
    switches = []
    for i in range(n_switches):
        s = OpenFlowSwitch(net.sim, f"s{i+1}", trace_bus=net.trace)
        net.add_node(s)
        switches.append(s)
    for a, b in zip(switches, switches[1:]):
        net.connect(a, b)
    hosts = [net.add_host(f"h{i+1}") for i in range(n_hosts)]
    net.connect(hosts[0], switches[0])
    net.connect(hosts[1], switches[-1])
    return net, switches, hosts


def udp(a, b, dport=5001, ident=0):
    return Packet.udp(a.mac, b.mac, a.ip, b.ip, 1, dport, ident=ident)


class TestLearningSwitch:
    def test_first_packet_floods(self):
        net, (s1,), (h1, h2) = line_topology()
        app = LearningSwitchApp(net.sim)
        s1.connect_controller(app)
        got = []
        h2.bind_udp(5001, got.append)
        h1.send(udp(h1, h2))
        net.run()
        assert len(got) == 1
        assert app.floods == 1

    def test_return_traffic_installs_flow(self):
        net, (s1,), (h1, h2) = line_topology()
        app = LearningSwitchApp(net.sim)
        s1.connect_controller(app)
        h2.bind_udp(5001, lambda p: None)
        h1.bind_udp(5001, lambda p: None)
        h1.send(udp(h1, h2, ident=1))
        net.run()
        h2.send(udp(h2, h1, ident=2))  # dst h1 now known -> flow install
        net.run()
        assert app.flows_installed == 1
        assert len(s1.table) == 1

    def test_learned_flow_bypasses_controller(self):
        net, (s1,), (h1, h2) = line_topology()
        app = LearningSwitchApp(net.sim)
        s1.connect_controller(app)
        h2.bind_udp(5001, lambda p: None)
        h1.bind_udp(5001, lambda p: None)
        h1.send(udp(h1, h2, ident=1))
        net.run()
        h2.send(udp(h2, h1, ident=2))
        net.run()
        before = app.messages_received
        h2.send(udp(h2, h1, ident=3))
        net.run()
        assert app.messages_received == before  # no new packet-in

    def test_multi_switch_learning_end_to_end(self):
        net, switches, (h1, h2) = line_topology(n_switches=3)
        app = LearningSwitchApp(net.sim)
        for s in switches:
            s.connect_controller(app)
        got = []
        h2.bind_udp(5001, got.append)
        h1.bind_udp(5001, lambda p: None)
        h1.send(udp(h1, h2, ident=1))
        net.run()
        h2.send(udp(h2, h1, ident=2))
        net.run()
        h1.send(udp(h1, h2, ident=3))
        net.run()
        assert len(got) == 2
        assert app.learned_port(switches[0], h1.mac) > 0

    def test_flow_idle_timeout_configurable(self):
        net, (s1,), (h1, h2) = line_topology()
        app = LearningSwitchApp(net.sim, flow_idle_timeout=0.05)
        s1.connect_controller(app)
        h1.bind_udp(5001, lambda p: None)
        h2.bind_udp(5001, lambda p: None)
        h1.send(udp(h1, h2, ident=1))
        net.run()
        h2.send(udp(h2, h1, ident=2))
        net.run()
        assert s1.table.entries[0].idle_timeout == 0.05
