"""Integration: the virtualized NetCo running inside a real fat-tree.

The Section VII pitch is that production networks already have the
redundancy the virtual combiner needs.  A fat-tree is the canonical
example: between two edge switches in different pods there are multiple
node-disjoint paths through distinct aggregation and core switches (one
per 'vendor group').  This suite provisions the virtual combiner over
those paths and attacks individual fabric switches.
"""

import pytest

from repro.adversary import BlackholeBehavior, PayloadCorruptionBehavior
from repro.core.alarms import ALARM_SPOOFED_BRANCH
from repro.apps import StaticMacRouter
from repro.core.compare import CompareConfig
from repro.core.virtual import (
    VirtualEgress,
    VirtualIngress,
    provision_virtual_combiner,
)
from repro.net import build_fat_tree
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow


def build(k_paths=2, seed=91):
    """Fat-tree (k=4) with a virtual combiner from edge0_0 to edge2_0."""

    def factory(layer, name, net):
        if name == "edge0_0":
            return VirtualIngress(net.sim, name, trace_bus=net.trace,
                                  proc_time=2e-6)
        if name == "edge2_0":
            return VirtualEgress(net.sim, name, trace_bus=net.trace,
                                 proc_time=2e-6)
        return None

    tree = build_fat_tree(4, seed=seed, switch_factory=factory,
                          switch_proc_time=2e-6, link_delay=2e-6)
    net = tree.network
    src = tree.host(0, 0, 0)   # under edge0_0
    dst = tree.host(2, 0, 0)   # under edge2_0
    ingress = tree.edge[0][0]
    egress = tree.edge[2][0]
    assert isinstance(ingress, VirtualIngress)
    assert isinstance(egress, VirtualEgress)

    # ordinary routing (used by the reverse direction and as the egress'
    # last hop); the ingress' protect_flow overrides the protected dst
    StaticMacRouter(net).install_pair(src, dst)

    combiner = provision_virtual_combiner(
        net,
        ingress,
        egress,
        dst_mac=dst.mac,
        k=k_paths,
        compare=CompareConfig(k=k_paths, buffer_timeout=2e-3),
    )
    return tree, combiner, src, dst


class TestProvisioning:
    def test_paths_are_disjoint_through_the_fabric(self):
        tree, combiner, src, dst = build(k_paths=2)
        assert len(combiner.branches) == 2
        interiors = [set(branch) for branch in combiner.branches]
        assert not (interiors[0] & interiors[1])
        # each path crosses agg -> core -> agg
        for branch in combiner.branches:
            assert len(branch) == 3

    def test_benign_ping_and_udp(self):
        tree, combiner, src, dst = build(k_paths=2)
        ping = run_ping(
            PathEndpoints(tree.network, src, dst), count=10, interval=1e-3
        )
        assert ping.received == 10 and ping.duplicates == 0
        flow = run_udp_flow(
            PathEndpoints(tree.network, src, dst), rate_bps=10e6, duration=0.02
        )
        assert flow.loss_rate == 0.0


class TestFabricAttacks:
    def _interior_switch(self, tree, combiner, path_index, hop):
        return combiner.branches[path_index][hop]

    def test_corrupt_core_switch_detected_at_k2(self):
        tree, combiner, src, dst = build(k_paths=2, seed=92)
        core = self._interior_switch(tree, combiner, 0, 1)  # the core hop
        PayloadCorruptionBehavior().attach(core)
        ping = run_ping(
            PathEndpoints(tree.network, src, dst), count=8, interval=1e-3
        )
        combiner.compare_core.flush()
        assert ping.received == 0  # k=2: detection, not prevention
        assert combiner.compare_core.alarms.count() > 0

    def test_blackholed_agg_masked_with_three_paths(self):
        # k=4 fat-tree has only 2 aggs per pod, so 2 fully disjoint
        # edge-to-edge paths; verify a failed path degrades to the
        # remaining one when the quorum allows it (k=2 quorum=2 cannot,
        # quorum=1-of-2 'any' mode can)
        tree, combiner, src, dst = build(k_paths=2, seed=93)
        combiner.compare_core.book.quorum = 1  # operator dials detection-only
        agg = self._interior_switch(tree, combiner, 1, 0)
        BlackholeBehavior().attach(agg)
        ping = run_ping(
            PathEndpoints(tree.network, src, dst), count=8, interval=1e-3
        )
        assert ping.received == 8  # availability preserved at quorum 1

    def test_unrelated_fabric_traffic_unaffected(self):
        tree, combiner, src, dst = build(k_paths=2, seed=94)
        other_a = tree.host(1, 0, 0)
        other_b = tree.host(3, 1, 1)
        StaticMacRouter(tree.network).install_pair(other_a, other_b)
        ping = run_ping(
            PathEndpoints(tree.network, other_a, other_b), count=5,
            interval=1e-3,
        )
        assert ping.received == 5
        assert combiner.compare_core.stats.submissions == 0  # not our flow

    def test_protected_destination_is_reached_only_through_the_tunnels(self):
        # The egress' uplinks are its tunnel ports, and a frame for the
        # protected destination on a tunnel port is a branch copy: without
        # its tunnel's tag it is refused as a spoofed branch, never routed.
        # So unprotected traffic to ``dst`` from another pod is refused;
        # a neighbour under the egress itself still reaches it.
        tree, combiner, src, dst = build(k_paths=2, seed=95)
        remote, neighbour = tree.host(1, 0, 0), tree.host(2, 0, 1)
        for host in (remote, neighbour):
            StaticMacRouter(tree.network).install_pair(host, dst)
        refused = run_ping(
            PathEndpoints(tree.network, remote, dst), count=5, interval=1e-3
        )
        assert refused.received == 0
        alarms = combiner.compare_core.alarms.of_kind(ALARM_SPOOFED_BRANCH)
        assert len(alarms) == 5 and {a.details["claimed"] for a in alarms} == {None}
        local = run_ping(
            PathEndpoints(tree.network, neighbour, dst), count=5, interval=1e-3
        )
        assert local.received == 5
        assert combiner.compare_core.stats.submissions == 0
