"""Tests for the n-port shielded router (Figure 2 deployment unit): the
one-endpoint :class:`CombinerChain`."""

from dataclasses import replace

import pytest

from repro.adversary.behaviors import match_dst_mac
from repro.adversary.dos import BlackholeBehavior
from repro.adversary.mirror import MirrorAndDropBehavior
from repro.adversary.modify import (
    HeaderRewriteBehavior,
    PayloadCorruptionBehavior,
    dst_mac_rewrite,
)
from repro.adversary.reroute import RerouteBehavior
from repro.core.alarms import (
    ALARM_DOS_SUSPECTED,
    ALARM_MINORITY_DIVERGENCE,
    ALARM_SINGLE_SOURCE_PACKET,
)
from repro.core.combiner import CombinerChainParams, build_combiner_chain
from repro.core.compare import CompareConfig
from repro.net.node import NetworkError
from repro.net.topology import Network
from repro.scenarios.testbed import build_testbed
from repro.scenarios.datacenter import SHIELD
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow


def shield_params(k=3, **overrides):
    """The pod slice's shield constants with a 2 ms compare buffer."""
    return replace(
        SHIELD, k=k, compare=CompareConfig(k=k, buffer_timeout=2e-3), **overrides
    )


def build_rig(k=3):
    """Three hosts hang off the shielded router, as off a 3-port switch."""
    net = Network(seed=4)
    shield = build_combiner_chain(net, "sr", shield_params(k))
    hosts = [net.add_host(f"h{i}") for i in (1, 2, 3)]
    ports = {h.name: shield.attach_neighbor(h) for h in hosts}
    for h in hosts:
        shield.install_mac_route(h.mac, ports[h.name])
    return net, shield, hosts, ports


class TestBenign:
    def test_any_pair_can_ping(self):
        net, shield, (h1, h2, h3), _ = build_rig()
        for src, dst in [(h1, h2), (h2, h3), (h3, h1)]:
            result = run_ping(PathEndpoints(net, src, dst), count=3, interval=1e-3)
            assert result.received == 3

    def test_replicas_route_and_compare_votes(self):
        net, shield, (h1, h2, _h3), _ = build_rig()
        run_ping(PathEndpoints(net, h1, h2), count=2, interval=1e-3)
        stats = shield.compare_core.stats
        assert stats.submissions == 12  # 2 req + 2 rep, 3 replicas each
        assert stats.released == 4

    def test_no_duplicate_deliveries(self):
        net, shield, (h1, h2, _h3), _ = build_rig()
        result = run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        assert result.duplicates == 0

    def test_k1_degenerate_still_works(self):
        net, shield, (h1, h2, _h3), _ = build_rig(k=1)
        result = run_ping(PathEndpoints(net, h1, h2), count=3, interval=1e-3)
        assert result.received == 3


class TestAttacks:
    def test_rerouting_replica_is_outvoted(self):
        # replica 0 claims the wrong egress: vote (bytes, claim) fails
        # for its copy, the two honest claims win
        net, shield, (h1, h2, h3), ports = build_rig()
        HeaderRewriteBehavior(dst_mac_rewrite(h3.mac)).attach(shield.routers[0])
        result = run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        assert result.received == 5
        assert h3.rx_foreign == 0  # nothing leaked toward h3

    def test_mirror_and_drop_is_fully_masked(self):
        net, shield, (h1, h2, h3), ports = build_rig()
        replica = shield.routers[2]
        mirror_port = shield.claim_port(2, ports["h3"])
        MirrorAndDropBehavior(
            mirror_port=mirror_port,
            mirror_selector=match_dst_mac(h2.mac),
            drop_selector=match_dst_mac(h1.mac),
        ).attach(replica)
        result = run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        assert result.received == 5  # drops masked by 2-of-3
        assert h3.rx_foreign == 0  # mirror copies never exit
        shield.compare_core.flush()
        assert shield.compare_core.alarms.count(ALARM_SINGLE_SOURCE_PACKET) >= 5

    def test_corruption_masked(self):
        net, shield, (h1, h2, _h3), _ = build_rig()
        PayloadCorruptionBehavior().attach(shield.routers[1])
        result = run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        assert result.received == 5

    def test_blackhole_masked(self):
        net, shield, (h1, h2, _h3), _ = build_rig()
        BlackholeBehavior().attach(shield.routers[0])
        result = run_ping(PathEndpoints(net, h1, h2), count=5, interval=1e-3)
        assert result.received == 5


class TestWiring:
    def test_route_to_unattached_port_rejected(self):
        net, shield, (h1, _h2, _h3), _ = build_rig()
        with pytest.raises(NetworkError):
            shield.install_mac_route(h1.mac, 9999)

    def test_external_port_lookup(self):
        net, shield, (h1, _h2, _h3), ports = build_rig()
        assert net.port_no_between(shield.endpoint_a.name, "h1") == ports["h1"]

    def test_k_zero_rejected(self):
        net = Network()
        with pytest.raises(NetworkError):
            build_combiner_chain(net, "x", shield_params(k=0))

    @pytest.mark.parametrize("override", [
        {"mode": "dup"},
        {"transport": "controller"},
        {"depth": 2},
        {"sample_rate": 0.2},
        {"endpoints": 0},
        {"endpoints": 3},
    ])
    def test_one_endpoint_refuses_what_it_cannot_wire(self, override):
        with pytest.raises(NetworkError):
            build_combiner_chain(Network(), "x", shield_params(**override))

    def test_a_two_endpoint_chain_attaches_no_neighbour(self):
        net = Network()
        chain = build_combiner_chain(net, "c", CombinerChainParams(k=3))
        with pytest.raises(NetworkError):
            chain.attach_neighbor(net.add_host("h9"))
        assert list(chain.claim_links()) == []

    def test_one_node_is_both_trusted_elements(self):
        net, shield, hosts, _ = build_rig()
        assert shield.endpoint_a is shield.endpoint_b
        assert shield.endpoint_a.name == "sr_e"
        assert [r.name for r in shield.routers] == ["sr_r0", "sr_r1", "sr_r2"]

    def test_replica_has_one_port_per_external(self):
        net, shield, hosts, _ = build_rig()
        # 3 externals -> each replica has 3 links to the endpoint
        for replica in shield.routers:
            assert len(replica.ports) == 3

    def test_parallel_claim_links_are_each_addressable(self):
        net, shield, hosts, ports = build_rig()
        names = [link.name for link in net.links]
        assert len(names) == len(set(names)) == 1 + 3 * 4  # compare + 3 x (1 + k)
        claims = list(shield.claim_links())
        assert len(claims) == 9
        for replica, neighbour, link in claims:
            port = shield.claim_port(replica, ports[neighbour])
            assert shield.routers[replica].port(port).link is link


# ----------------------------------------------------------------------
# the registered scenario: the vote covers the egress port
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(24))
def test_right_bytes_out_the_wrong_port_is_outvoted(seed):
    # replica 1 sends every fw1-bound datagram, bytes untouched, out its
    # claim-link for core1: a routing lie a bytes-only vote cannot see
    testbed = build_testbed("fattree_shielded3", seed=seed)
    shield, fw1 = testbed.chain, testbed.h2
    core1 = testbed.network.port_no_between(shield.endpoint_a.name, "core1")
    RerouteBehavior(
        shield.claim_port(1, core1), selector=match_dst_mac(fw1.mac),
    ).attach(shield.routers[1])
    flow = run_udp_flow(
        testbed.path(), rate_bps=20e6, duration=0.02, payload_size=512,
        send_cost=testbed.params.udp_send_cost,
    )
    assert flow.sent > 0
    assert flow.received_unique == flow.sent
    assert flow.duplicates == 0
    core1 = testbed.network.node("core1")
    assert sum(
        port.peer.wire_stats.delivered_packets for port in core1.ports.values()
    ) == 0
    alarms = testbed.alarms.counts()
    # every lying copy is a claim no other replica made
    assert alarms[ALARM_SINGLE_SOURCE_PACKET] == flow.sent
    assert alarms[ALARM_MINORITY_DIVERGENCE] > 0
    assert alarms[ALARM_DOS_SUSPECTED] > 0
