"""Integration tests for the Figure 3 combiner chain."""

import pytest

from repro.adversary.behaviors import match_udp
from repro.adversary.dos import BlackholeBehavior, ReplayFloodBehavior
from repro.adversary.modify import (
    DropBehavior,
    HeaderRewriteBehavior,
    PayloadCorruptionBehavior,
    dst_mac_rewrite,
)
from repro.core.alarms import (
    ALARM_ROUTER_UNAVAILABLE,
    ALARM_SINGLE_SOURCE_PACKET,
)
from repro.core.combiner import CombinerChainParams, build_combiner_chain
from repro.core.compare import CompareConfig
from repro.net.node import NetworkError
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow


def build_rig(k=3, mode="combine", transport="inline", miss_threshold=5,
              dup_threshold=8):
    net = Network(seed=2)
    params = CombinerChainParams(
        k=k,
        mode=mode,
        transport=transport,
        compare=CompareConfig(
            k=k,
            buffer_timeout=2e-3,
            miss_threshold=miss_threshold,
            dup_threshold=dup_threshold,
        ),
        controller_latency=5e-6,
        controller_proc_time=5e-6,
    )
    chain = build_combiner_chain(net, "nc", params)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    net.connect(h1, chain.endpoint_a)
    net.connect(h2, chain.endpoint_b)
    chain.install_mac_route(h2.mac, toward="b")
    chain.install_mac_route(h1.mac, toward="a")
    return net, chain, h1, h2


class TestBenignOperation:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_ping_completes_for_any_k(self, k):
        net, chain, h1, h2 = build_rig(k=k)
        result = run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        assert result.received == 5
        assert result.duplicates == 0

    def test_udp_flow_delivered_without_duplicates(self):
        net, chain, h1, h2 = build_rig()
        result = run_udp_flow(
            PathEndpoints(net, h1, h2), rate_bps=10e6, duration=0.02
        )
        assert result.loss_rate == 0.0
        assert result.duplicates == 0

    def test_dup_mode_delivers_k_copies(self):
        net, chain, h1, h2 = build_rig(k=3, mode="dup")
        result = run_udp_flow(
            PathEndpoints(net, h1, h2), rate_bps=10e6, duration=0.02
        )
        assert result.loss_rate == 0.0
        assert result.duplicates == 2 * result.received_unique

    def test_compare_sees_k_copies_per_packet(self):
        net, chain, h1, h2 = build_rig(k=3)
        run_ping(PathEndpoints(net, h1, h2), count=4, interval=1e-3)
        stats = chain.compare_core.stats
        # 4 requests + 4 replies, 3 copies each
        assert stats.submissions == 24
        assert stats.released == 8

    def test_compare_host_counts_the_copies_it_refuses(self):
        net, chain, h1, h2 = build_rig()
        host = chain.compare_host
        packet = Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 1, 5001, payload=b"x")
        host.receive(packet, host.add_port())  # no endpoint behind it
        registered = host.port(net.port_no_between(host.name, chain.endpoint_a.name))
        host.receive(packet.copy(), registered)  # no branch tag
        assert host.stats.as_dict() == {
            "dropped_unregistered_port": 1,
            "dropped_untagged": 1,
        }
        assert chain.compare_core.stats.submissions == 0
        assert net.trace.records == []  # counted, with nobody reading traces

    def test_controller_transport_works(self):
        net, chain, h1, h2 = build_rig(transport="controller")
        assert chain.compare_host is None
        assert chain.controller is not None
        result = run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        assert result.received == 5

    def test_controller_transport_pays_channel_latency(self):
        net1, _, h11, h21 = build_rig(transport="inline")
        rtt_inline = run_ping(PathEndpoints(net1, h11, h21), count=5).rtts.mean
        net2, _, h12, h22 = build_rig(transport="controller")
        rtt_ctl = run_ping(PathEndpoints(net2, h12, h22), count=5).rtts.mean
        assert rtt_ctl > rtt_inline


class TestAdversarialOperation:
    def test_payload_corruption_masked(self):
        net, chain, h1, h2 = build_rig()
        PayloadCorruptionBehavior().attach(chain.router(0))
        result = run_ping(PathEndpoints(net, h1, h2), count=10, interval=1e-3)
        assert result.received == 10
        chain.compare_core.flush()
        assert chain.compare_core.stats.expired_unreleased >= 10

    def test_header_rewrite_masked(self):
        net, chain, h1, h2 = build_rig()
        other = net.add_host("other")
        HeaderRewriteBehavior(dst_mac_rewrite(other.mac)).attach(chain.router(1))
        result = run_ping(PathEndpoints(net, h1, h2), count=10, interval=1e-3)
        assert result.received == 10

    def test_blackhole_masked_and_alarmed(self):
        net, chain, h1, h2 = build_rig(miss_threshold=5)
        BlackholeBehavior().attach(chain.router(2))
        result = run_ping(PathEndpoints(net, h1, h2), count=10, interval=1e-3)
        assert result.received == 10
        alarms = chain.compare_core.alarms.of_kind(ALARM_ROUTER_UNAVAILABLE)
        assert len(alarms) >= 1
        assert alarms[0].branch == 2

    def test_selective_drop_masked(self):
        net, chain, h1, h2 = build_rig()
        DropBehavior(selector=match_udp()).attach(chain.router(0))
        result = run_udp_flow(
            PathEndpoints(net, h1, h2), rate_bps=5e6, duration=0.02
        )
        assert result.loss_rate == 0.0

    def test_crafted_packets_never_exit(self):
        net, chain, h1, h2 = build_rig()
        evil = Packet.udp(h1.mac, h2.mac, h1.ip, h2.ip, 6666, 6666, payload=b"evil")
        router = chain.router(1)
        out_port = net.port_no_between(router.name, chain.endpoint_b.name)
        got = []
        h2.bind_udp(6666, got.append)
        net.sim.schedule(
            0.001, lambda: router.ports[out_port].send(evil)
        )
        net.run(until=0.05)
        assert got == []
        assert chain.compare_core.alarms.count(ALARM_SINGLE_SOURCE_PACKET) == 1

    def test_two_colluding_routers_defeat_k3(self):
        # the security boundary: k=3 masks one traitor, not two
        net, chain, h1, h2 = build_rig(k=3)
        mutate = dst_mac_rewrite(h1.mac)  # reflect traffic back
        HeaderRewriteBehavior(mutate).attach(chain.router(0))
        HeaderRewriteBehavior(mutate).attach(chain.router(1))
        result = run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        assert result.received == 0

    def test_k5_masks_two_traitors(self):
        net, chain, h1, h2 = build_rig(k=5)
        mutate = dst_mac_rewrite(h1.mac)
        HeaderRewriteBehavior(mutate).attach(chain.router(0))
        HeaderRewriteBehavior(mutate).attach(chain.router(1))
        result = run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        assert result.received == 5

    def test_replay_flood_triggers_port_block(self):
        net, chain, h1, h2 = build_rig(dup_threshold=4)
        ReplayFloodBehavior(amplification=20).attach(chain.router(0))
        run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=5e6, duration=0.02)
        assert chain.compare_core.stats.blocks_issued >= 1

    def test_detection_mode_k2(self):
        # k=2 with quorum 2: a tampering router stalls traffic (detected,
        # not masked) and the divergence is visible via expiries
        net, chain, h1, h2 = build_rig(k=2)
        PayloadCorruptionBehavior().attach(chain.router(0))
        result = run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        assert result.received == 0
        chain.compare_core.flush()
        assert chain.compare_core.stats.expired_unreleased > 0


class TestBuilderValidation:
    def test_k_zero_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            build_combiner_chain(net, "nc", CombinerChainParams(k=0))

    def test_bad_mode_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            build_combiner_chain(net, "nc", CombinerChainParams(mode="wat"))

    def test_bad_transport_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            build_combiner_chain(
                net, "nc", CombinerChainParams(transport="pigeon")
            )

    def test_install_route_validates_direction(self):
        net, chain, h1, _h2 = build_rig()
        with pytest.raises(ValueError):
            chain.install_mac_route(h1.mac, toward="x")

    def test_for_k_scales_compare_config(self):
        params = CombinerChainParams(k=3).for_k(5)
        assert params.k == 5 and params.compare.k == 5
