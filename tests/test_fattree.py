"""Tests for the fat-tree topology builder."""

import pytest

from repro.apps.static_routing import StaticMacRouter
from repro.net.fattree import build_fat_tree
from repro.net.host import Host
from repro.traffic.iperf import PathEndpoints, run_ping


class TestStructure:
    def test_k4_element_counts(self):
        tree = build_fat_tree(4)
        assert len(tree.core) == 4
        assert sum(len(p) for p in tree.aggregation) == 8
        assert sum(len(p) for p in tree.edge) == 8
        hosts = [n for n in tree.network.nodes.values() if isinstance(n, Host)]
        assert len(hosts) == 16
        assert len(tree.network.nodes) == 16 + 20

    def test_k2_element_counts(self):
        tree = build_fat_tree(2)
        assert len(tree.core) == 1
        hosts = [n for n in tree.network.nodes.values() if isinstance(n, Host)]
        assert len(hosts) == 2
        assert len(tree.network.nodes) == 2 + 5

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            build_fat_tree(3)
        with pytest.raises(ValueError):
            build_fat_tree(0)

    def test_edge_connects_to_all_pod_aggs(self):
        tree = build_fat_tree(4)
        net = tree.network
        for pod in range(4):
            for edge in tree.edge[pod]:
                for agg in tree.aggregation[pod]:
                    assert net.port_no_between(edge.name, agg.name) > 0

    def test_agg_connects_to_core_group(self):
        tree = build_fat_tree(4)
        net = tree.network
        # agg i in each pod reaches cores [2i, 2i+1]
        for pod in range(4):
            for i, agg in enumerate(tree.aggregation[pod]):
                for j in range(2):
                    core = tree.core[i * 2 + j]
                    assert net.port_no_between(agg.name, core.name) > 0

    def test_hosts_attached_to_their_edge(self):
        tree = build_fat_tree(4)
        host = tree.host(2, 1, 0)
        edge = tree.edge[2][1]
        assert tree.network.port_no_between(edge.name, host.name) > 0


class TestConnectivity:
    def test_cross_pod_shortest_path_length(self):
        tree = build_fat_tree(4)
        a = tree.host(0, 0, 0)
        b = tree.host(3, 1, 1)
        path = tree.network.shortest_path(a.name, b.name)
        # host-edge-agg-core-agg-edge-host
        assert len(path) == 7

    def test_same_rack_path_length(self):
        tree = build_fat_tree(4)
        a, b = tree.host(0, 0, 0), tree.host(0, 0, 1)
        assert len(tree.network.shortest_path(a.name, b.name)) == 3

    def test_ping_across_pods_with_static_routing(self):
        tree = build_fat_tree(4, link_delay=1e-6)
        a = tree.host(0, 0, 0)
        b = tree.host(2, 1, 1)
        StaticMacRouter(tree.network).install_pair(a, b)
        result = run_ping(
            PathEndpoints(tree.network, a, b), count=5, interval=1e-4
        )
        assert result.received == 5
        assert result.rtts.minimum > 0
