"""Tests for the virtualized NetCo (Section VII)."""

import pytest

from repro.adversary.dos import BlackholeBehavior, ReplayFloodBehavior
from repro.adversary.modify import (
    HeaderRewriteBehavior,
    PayloadCorruptionBehavior,
    vlan_rewrite,
)
from repro.core.alarms import (
    ALARM_ROUTER_UNAVAILABLE,
    ALARM_SINGLE_SOURCE_PACKET,
    ALARM_SPOOFED_BRANCH,
)
from repro.core.combiner import CombinerChain
from repro.core.compare import CompareConfig
from repro.net.addresses import MacAddress
from repro.net.node import NetworkError
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch
from repro.core.virtual import VID_BASE, VirtualEgress, VirtualIngress
from repro.scenarios.virtualized import (
    build_virtualized_scenario,
    provision_virtual_combiner,
)
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow


class TestProvisioning:
    def test_paths_are_node_disjoint(self):
        scenario = build_virtualized_scenario(k=3)
        branches = scenario.combiner.branches
        assert len(branches) == 3
        interiors = [set(branch) for branch in branches]
        assert not (interiors[0] & interiors[1])
        assert not (interiors[0] & interiors[2])

    def test_the_handle_is_a_combiner_chain(self):
        scenario = build_virtualized_scenario(k=3)
        chain = scenario.combiner
        assert isinstance(chain, CombinerChain)
        assert isinstance(chain.endpoint_a, VirtualIngress)
        assert isinstance(chain.endpoint_b, VirtualEgress)
        assert chain.routers == scenario.transits
        assert chain.compare_host is None
        assert list(chain.claim_links()) == []

    def test_each_tunnel_ends_on_a_branch_port(self):
        scenario = build_virtualized_scenario(k=3)
        net, egress = scenario.network, scenario.combiner.endpoint_b
        for i, transit in enumerate(scenario.transits):
            port = net.port_no_between("egress", transit.name)
            assert egress.branch_of_port(port) == i
        assert egress.branch_of_port(net.port_no_between("egress", "dst")) is None

    def test_vlan_rules_installed_on_transits(self):
        scenario = build_virtualized_scenario(k=3)
        for i, transit in enumerate(scenario.transits):
            vids = [e.match.dl_vlan for e in transit.table]
            assert VID_BASE + i in vids

    def test_insufficient_paths_rejected(self):
        with pytest.raises((NetworkError, ValueError)):
            build_virtualized_scenario(k=4, paths_available=3)

    def test_unprotected_traffic_not_split(self):
        scenario = build_virtualized_scenario(k=3)
        # dst -> src is unprotected; ingress pipeline handles it normally
        net, src, dst = scenario.network, scenario.src, scenario.dst
        got = []
        src.bind_udp(7, got.append)
        dst.send(Packet.udp(dst.mac, src.mac, dst.ip, src.ip, 1, 7))
        net.run()
        assert len(got) == 1
        assert scenario.combiner.endpoint_a.split_packets == 0


class TestEdgeRouting:
    """What an edge does not split or vote on leaves through its static
    route table; a frame with no route is counted, traced and dropped,
    never flooded or sent into a tunnel."""

    @pytest.mark.parametrize("edge, host", [("ingress", "src"), ("egress", "dst")])
    def test_an_unrouted_frame_is_dropped_and_counted(self, edge, host):
        scenario = build_virtualized_scenario(k=3)
        net = scenario.network
        net.trace.start_retaining()
        node, sender = net.node(edge), net.node(host)
        stranger = MacAddress("02:00:00:00:00:99")
        sender.send(Packet.udp(sender.mac, stranger, sender.ip, sender.ip, 1, 7))
        net.run()
        assert node.unrouted_drops == 1
        assert node.stats.forwarded == 0
        assert sum(port.wire_stats.tx_packets for port in node.ports.values()) == 0
        topics = [record.topic for record in net.trace.records]
        assert topics.count("virtual_edge.no_route") == 1

    def test_a_release_with_no_route_is_dropped_and_counted(self):
        # the ladder without its edges' routes: the copies are split,
        # voted on and released, and the release has nowhere to go
        net = Network(seed=0)
        ingress = net.add_node(VirtualIngress(net.sim, "ingress", trace_bus=net.trace))
        egress = net.add_node(VirtualEgress(net.sim, "egress", trace_bus=net.trace))
        src, dst = net.add_host("src"), net.add_host("dst")
        net.connect(src, ingress)
        net.connect(egress, dst)
        for i in range(3):
            transit = net.add_node(OpenFlowSwitch(net.sim, f"vendor{i}"))
            net.connect(ingress, transit)
            net.connect(transit, egress)
        provision_virtual_combiner(net, ingress, egress, dst_mac=dst.mac, k=3)
        got = []
        dst.bind_udp(7, got.append)
        for ident in range(4):
            src.send(Packet.udp(src.mac, dst.mac, src.ip, dst.ip, 1, 7, ident=ident))
        net.run()
        assert (ingress.split_packets, egress.recombined) == (4, 4)
        assert egress.unrouted_drops == 4 and not got
        to_dst = egress.port(net.port_no_between("egress", "dst")).wire_stats
        assert to_dst.tx_packets == 0

    def test_a_route_needs_a_wired_port(self):
        scenario = build_virtualized_scenario(k=3)
        egress = scenario.combiner.endpoint_b
        unwired = egress.add_port().port_no
        with pytest.raises(NetworkError):
            egress.route(scenario.dst.mac, unwired)


def build_two_hop_fabric():
    """Ingress and egress joined by two tunnels of two transits each
    (``near{i}`` then ``far{i}``): a tag crosses two untrusted hops."""
    net = Network(seed=0)
    ingress = net.add_node(VirtualIngress(net.sim, "ingress", trace_bus=net.trace))
    egress = net.add_node(VirtualEgress(net.sim, "egress", trace_bus=net.trace))
    src, dst = net.add_host("src"), net.add_host("dst")
    net.connect(src, ingress)
    net.connect(egress, dst)
    for i in range(2):
        near = net.add_node(OpenFlowSwitch(net.sim, f"near{i}", trace_bus=net.trace))
        far = net.add_node(OpenFlowSwitch(net.sim, f"far{i}", trace_bus=net.trace))
        net.connect(ingress, near)
        net.connect(near, far)
        net.connect(far, egress)
    egress.route(dst.mac, net.port_no_between("egress", "dst"))
    chain = provision_virtual_combiner(
        net, ingress, egress, dst_mac=dst.mac, k=2,
        compare=CompareConfig(k=2, buffer_timeout=2e-3),
    )
    return net, chain, src, dst


class TestMultiHopTunnels:
    def test_each_tunnel_is_tagged_across_both_of_its_transits(self):
        net, chain, src, dst = build_two_hop_fabric()
        assert [[node.name for node in branch] for branch in chain.branches] == [
            ["near0", "far0"], ["near1", "far1"],
        ]
        for i, branch in enumerate(chain.branches):
            for transit in branch:
                assert [e.match.dl_vlan for e in transit.table] == [VID_BASE + i]

    def test_benign_udp_crosses_both_hops(self):
        net, chain, src, dst = build_two_hop_fabric()
        flow = run_udp_flow(PathEndpoints(net, src, dst), rate_bps=10e6, duration=0.02)
        assert flow.loss_rate == 0.0 and flow.duplicates == 0
        assert chain.endpoint_b.recombined == flow.sent


class TestBenignFlow:
    def test_ping_through_tunnels(self):
        scenario = build_virtualized_scenario(k=3)
        result = run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=5, interval=1e-3,
        )
        assert result.received == 5
        assert result.duplicates == 0
        assert scenario.combiner.endpoint_a.split_packets == 5
        assert scenario.combiner.endpoint_b.recombined == 5

    def test_udp_through_tunnels_no_duplicates(self):
        scenario = build_virtualized_scenario(k=3)
        result = run_udp_flow(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            rate_bps=10e6, duration=0.02,
        )
        assert result.loss_rate == 0.0
        assert result.duplicates == 0

    def test_k2_benign_flow(self):
        scenario = build_virtualized_scenario(k=2)
        result = run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=5, interval=1e-3,
        )
        assert result.received == 5

    def test_copies_arrive_tagged_per_path(self):
        scenario = build_virtualized_scenario(k=3)
        seen_vids = []
        for transit in scenario.transits:
            for port in transit.ports.values():
                port.taps.append(
                    lambda p, t=transit: seen_vids.append(
                        (t.name, p.vlan.vid if p.vlan else None)
                    )
                )
        run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=1, interval=1e-3,
        )
        tagged = {(name, vid) for name, vid in seen_vids if vid is not None}
        assert len({vid for _name, vid in tagged}) == 3


class TestAttacksPrevention:
    def test_k3_masks_payload_corruption(self):
        scenario = build_virtualized_scenario(k=3)
        PayloadCorruptionBehavior().attach(scenario.transits[1])
        result = run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=10, interval=1e-3,
        )
        assert result.received == 10

    def test_k3_masks_blackhole_with_alarm(self):
        # transit 0 also carries the unprotected reverse path, so attack
        # transit 2, which only carries protected copies
        scenario = build_virtualized_scenario(k=3)
        BlackholeBehavior().attach(scenario.transits[2])
        result = run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=12, interval=1e-3,
        )
        assert result.received == 12
        core = scenario.combiner.compare_core
        core.flush()
        assert core.alarms.count(ALARM_ROUTER_UNAVAILABLE) >= 1

    def test_k3_masks_tunnel_label_rewrite(self):
        # a transit moving its copy into another tunnel's VLAN (and
        # forwarding that label on) still arrives on its own tunnel's
        # egress port: a spoofed branch, dropped before the vote, and the
        # other two copies are a majority
        scenario = build_virtualized_scenario(k=3)
        victim_vid = VID_BASE + 0
        transit = scenario.transits[1]
        transit.install(
            Match(dl_vlan=victim_vid),
            [Output(scenario.network.port_no_between(transit.name, "egress"))],
            priority=20,
        )
        HeaderRewriteBehavior(vlan_rewrite(victim_vid)).attach(transit)
        result = run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=5, interval=1e-3,
        )
        assert result.received == 5
        assert scenario.combiner.endpoint_b.spoof_drops == 5
        alarms = scenario.combiner.compare_core.alarms
        assert alarms.count(ALARM_SPOOFED_BRANCH) == 5


class TestAttacksDetection:
    def test_k2_detects_corruption_by_stalling(self):
        scenario = build_virtualized_scenario(k=2)
        PayloadCorruptionBehavior().attach(scenario.transits[0])
        result = run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=5, interval=1e-3,
        )
        assert result.received == 0
        core = scenario.combiner.compare_core
        core.flush()
        assert core.alarms.count(ALARM_SINGLE_SOURCE_PACKET) > 0

    def test_k2_detects_blackhole(self):
        scenario = build_virtualized_scenario(k=2)
        BlackholeBehavior().attach(scenario.transits[1])
        result = run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=5, interval=1e-3,
        )
        assert result.received == 0

    def test_replay_flood_detected(self):
        scenario = build_virtualized_scenario(k=3)
        ReplayFloodBehavior(amplification=20).attach(scenario.transits[0])
        run_udp_flow(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            rate_bps=5e6, duration=0.02,
        )
        assert scenario.combiner.compare_core.stats.branch_duplicates > 0

    def test_a_block_closes_the_tunnels_egress_port(self):
        # the compare's duplicate-flood block is a real port block on the
        # egress, as on a chain endpoint (transit 0 would also carry the
        # unprotected reverse path, so flood from transit 2)
        scenario = build_virtualized_scenario(k=3)
        net, egress = scenario.network, scenario.combiner.endpoint_b
        net.trace.start_retaining()
        ReplayFloodBehavior(amplification=20).attach(scenario.transits[2])
        flow = run_udp_flow(
            PathEndpoints(net, scenario.src, scenario.dst),
            rate_bps=5e6, duration=0.02,
        )
        assert scenario.combiner.compare_core.stats.blocks_issued >= 1
        drops = [
            egress.port(net.port_no_between("egress", t.name)).blocked_drops
            for t in scenario.transits
        ]
        assert drops[0] == drops[1] == 0 and drops[2] > 0
        assert flow.received_unique == flow.sent  # two tunnels are a quorum
        topics = {record.topic for record in net.trace.records}
        assert "switch.port_blocked" in topics
        assert "virtual_egress.block_tunnel" not in topics

    def test_quorum_one_keeps_a_blackholed_tunnel_available(self):
        # at k=2 a blackholed tunnel stalls every vote (above); an
        # operator who dials the quorum down to 1 trades detection for
        # availability, and the live tunnel alone delivers everything
        scenario = build_virtualized_scenario(k=2)
        scenario.combiner.compare_core.book.quorum = 1
        BlackholeBehavior().attach(scenario.transits[1])
        result = run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=8, interval=1e-3,
        )
        assert result.received == 8 and result.duplicates == 0


class TestBesideTheTunnels:
    def test_protected_dst_is_reached_only_through_the_tunnels(self):
        # an untagged frame for the protected destination on a tunnel
        # port is a branch copy without its tunnel's tag: refused as a
        # spoofed branch, never routed; a host on the egress itself
        # still reaches the destination
        scenario = build_virtualized_scenario(k=3)
        net, dst = scenario.network, scenario.dst
        egress, core = scenario.combiner.endpoint_b, scenario.combiner.compare_core
        vendor0 = scenario.transits[0]
        remote = net.add_host("remote")
        net.connect(remote, vendor0)
        vendor0.install(
            Match(dl_dst=dst.mac),
            [Output(net.port_no_between("vendor0", "egress"))],
            priority=10,
        )
        refused = run_ping(PathEndpoints(net, remote, dst), count=5, interval=1e-3)
        assert refused.received == 0
        alarms = core.alarms.of_kind(ALARM_SPOOFED_BRANCH)
        assert len(alarms) == 5 and {a.details["claimed"] for a in alarms} == {None}
        neighbour = net.add_host("neighbour")
        net.connect(egress, neighbour)
        egress.route(neighbour.mac, net.port_no_between("egress", "neighbour"))
        local = run_ping(PathEndpoints(net, neighbour, dst), count=5, interval=1e-3)
        assert local.received == 5
        assert core.stats.submissions == 0

    def test_unrelated_traffic_is_routed_never_submitted(self):
        # a flow between a host behind transit 2 and a host on the egress
        # shares the tunnel's egress port but not its destination
        scenario = build_virtualized_scenario(k=3)
        net = scenario.network
        egress, vendor2 = scenario.combiner.endpoint_b, scenario.transits[2]
        far, near = net.add_host("far"), net.add_host("near")
        net.connect(far, vendor2)
        net.connect(egress, near)
        egress.route(near.mac, net.port_no_between("egress", "near"))
        egress.route(far.mac, net.port_no_between("egress", "vendor2"))
        for host, nxt in ((near, "egress"), (far, "far")):
            vendor2.install(
                Match(dl_dst=host.mac),
                [Output(net.port_no_between("vendor2", nxt))],
                priority=10,
            )
        ping = run_ping(PathEndpoints(net, far, near), count=5, interval=1e-3)
        assert ping.received == 5 and ping.duplicates == 0
        assert scenario.combiner.compare_core.stats.submissions == 0
        assert scenario.combiner.endpoint_a.split_packets == 0
