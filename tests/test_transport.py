"""Tests for the coarse-granular (whole-network) combiner."""

import pytest

from repro.adversary.dos import BlackholeBehavior
from repro.adversary.modify import (
    HeaderRewriteBehavior,
    PayloadCorruptionBehavior,
    dst_mac_rewrite,
)
from repro.core.combiner import CombinerChainParams, build_combiner_chain
from repro.net.node import NetworkError
from repro.net.topology import Network
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow


def build_rig(k=3, depth=3, seed=0):
    """src — [k replica networks of ``depth`` switches] — dst."""
    net = Network(seed=seed)
    chain = build_combiner_chain(net, "tn", CombinerChainParams(k=k, depth=depth))
    src, dst = net.add_host("src"), net.add_host("dst")
    net.connect(src, chain.endpoint_a, rate_bps=1e9, delay=2e-6)
    net.connect(dst, chain.endpoint_b, rate_bps=1e9, delay=2e-6)
    chain.install_mac_route(dst.mac, toward="b")
    chain.install_mac_route(src.mac, toward="a")
    return net, chain, src, dst


class TestConstruction:
    def test_replica_counts(self):
        net, combiner, src, dst = build_rig(k=3, depth=4)
        assert combiner.k == 3
        assert all(len(branch) == 4 for branch in combiner.branches)
        names = {s.name for branch in combiner.branches for s in branch}
        assert len(names) == 12

    def test_invalid_parameters(self):
        with pytest.raises((ValueError, NetworkError)):
            build_rig(k=0)
        with pytest.raises((ValueError, NetworkError)):
            build_rig(depth=0)

    def test_route_direction_validated(self):
        net, combiner, src, dst = build_rig()
        with pytest.raises(ValueError):
            combiner.install_mac_route(dst.mac, toward="sideways")


class TestBenign:
    def test_ping_through_replicated_networks(self):
        net, combiner, src, dst = build_rig(k=3, depth=3, seed=1)
        result = run_ping(PathEndpoints(net, src, dst), count=10, interval=1e-3)
        assert result.received == 10
        assert result.duplicates == 0

    def test_udp_no_loss_no_duplicates(self):
        net, combiner, src, dst = build_rig(k=3, depth=3, seed=1)
        result = run_udp_flow(PathEndpoints(net, src, dst), rate_bps=20e6,
                              duration=0.03)
        assert result.loss_rate == 0.0
        assert result.duplicates == 0

    def test_each_replica_carries_a_copy(self):
        net, combiner, src, dst = build_rig(k=3, depth=2, seed=1)
        run_ping(PathEndpoints(net, src, dst), count=5, interval=1e-3)
        for branch in range(3):
            # every switch in every replica saw 5 requests + 5 replies
            for hop in range(2):
                assert combiner.branches[branch][hop].stats.forwarded == 10

    def test_depth_one_equals_fine_grained(self):
        net, combiner, src, dst = build_rig(k=3, depth=1, seed=1)
        result = run_ping(PathEndpoints(net, src, dst), count=5, interval=1e-3)
        assert result.received == 5


class TestCompromisedReplicaNetwork:
    @pytest.mark.parametrize("hop", [0, 1, 2])
    def test_corruption_at_any_depth_masked(self, hop):
        net, combiner, src, dst = build_rig(k=3, depth=3, seed=2)
        PayloadCorruptionBehavior().attach(combiner.branches[1][hop])
        result = run_ping(PathEndpoints(net, src, dst), count=8, interval=1e-3)
        assert result.received == 8, f"tamper at hop {hop} leaked"

    def test_blackhole_deep_inside_replica_masked(self):
        net, combiner, src, dst = build_rig(k=3, depth=3, seed=3)
        BlackholeBehavior().attach(combiner.branches[0][2])
        result = run_ping(PathEndpoints(net, src, dst), count=8, interval=1e-3)
        assert result.received == 8

    def test_rerouting_inside_replica_masked(self):
        net, combiner, src, dst = build_rig(k=3, depth=3, seed=4)
        HeaderRewriteBehavior(dst_mac_rewrite(src.mac)).attach(
            combiner.branches[2][1]
        )
        result = run_ping(PathEndpoints(net, src, dst), count=8, interval=1e-3)
        assert result.received == 8

    def test_fully_compromised_replica_network_masked(self):
        # every switch of replica 1 is hostile — still one branch
        net, combiner, src, dst = build_rig(k=3, depth=3, seed=5)
        for hop in range(3):
            PayloadCorruptionBehavior(flip_offset=hop).attach(
                combiner.branches[1][hop]
            )
        result = run_ping(PathEndpoints(net, src, dst), count=8, interval=1e-3)
        assert result.received == 8

    def test_two_compromised_networks_defeat_k3(self):
        net, combiner, src, dst = build_rig(k=3, depth=2, seed=6)
        BlackholeBehavior().attach(combiner.branches[0][0])
        BlackholeBehavior().attach(combiner.branches[1][1])
        result = run_ping(PathEndpoints(net, src, dst), count=5, interval=1e-3)
        assert result.received == 0
