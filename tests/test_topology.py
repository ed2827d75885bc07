"""Tests for the Network container, wiring helpers and path computation."""

import pytest

from repro.net.node import NetworkError
from repro.net.topology import Network
from repro.openflow.switch import OpenFlowSwitch


def switch(net, name):
    return net.add_node(OpenFlowSwitch(net.sim, name, trace_bus=net.trace))


class TestNodeManagement:
    def test_duplicate_node_name_rejected(self):
        net = Network()
        net.add_host("h1")
        with pytest.raises(NetworkError):
            net.add_host("h1")

    def test_node_lookup(self):
        net = Network()
        h1 = net.add_host("h1")
        assert net.node("h1") is h1
        with pytest.raises(NetworkError):
            net.node("nope")

    def test_host_lookup_type_checked(self):
        net = Network()
        switch(net, "s1")
        with pytest.raises(NetworkError):
            net.host("s1")

    def test_auto_addresses_are_unique(self):
        net = Network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        assert h1.mac != h2.mac and h1.ip != h2.ip


class TestWiring:
    def test_connect_creates_adjacency(self):
        net = Network()
        s1, s2 = switch(net, "s1"), switch(net, "s2")
        net.connect(s1, s2)
        port12 = net.port_between("s1", "s2")
        port21 = net.port_between("s2", "s1")
        assert port12.node is s1 and port21.node is s2

    def test_port_no_between_missing(self):
        net = Network()
        switch(net, "s1")
        switch(net, "s2")
        with pytest.raises(NetworkError):
            net.port_no_between("s1", "s2")

    def test_host_cannot_be_double_wired(self):
        net = Network()
        h1 = net.add_host("h1")
        s1, s2 = switch(net, "s1"), switch(net, "s2")
        net.connect(h1, s1)
        with pytest.raises(NetworkError):
            net.connect(h1, s2)

    def test_explicit_port_numbers(self):
        net = Network()
        s1, s2 = switch(net, "s1"), switch(net, "s2")
        net.connect(s1, s2, port_a=7, port_b=9)
        assert net.port_no_between("s1", "s2") == 7
        assert net.port_no_between("s2", "s1") == 9

    def test_explicit_port_already_wired_rejected(self):
        net = Network()
        s1, s2, s3 = switch(net, "s1"), switch(net, "s2"), switch(net, "s3")
        net.connect(s1, s2, port_a=1)
        with pytest.raises(NetworkError):
            net.connect(s1, s3, port_a=1)

    def test_neighbors(self):
        net = Network()
        s1, s2, s3 = switch(net, "s1"), switch(net, "s2"), switch(net, "s3")
        net.connect(s1, s2)
        net.connect(s1, s3)
        assert net.neighbors("s1") == ["s2", "s3"]
        assert net.neighbors("s2") == ["s1"]


class TestPaths:
    def build_diamond(self):
        # s1 - {a, b} - s2 plus a longer path via c-d
        net = Network()
        for name in ("s1", "a", "b", "c", "d", "s2"):
            switch(net, name)
        net.connect(net.node("s1"), net.node("a"))
        net.connect(net.node("a"), net.node("s2"))
        net.connect(net.node("s1"), net.node("b"))
        net.connect(net.node("b"), net.node("s2"))
        net.connect(net.node("s1"), net.node("c"))
        net.connect(net.node("c"), net.node("d"))
        net.connect(net.node("d"), net.node("s2"))
        return net

    def test_disjoint_paths_three_ways(self):
        net = self.build_diamond()
        paths = net.disjoint_paths("s1", "s2", 3)
        assert len(paths) == 3
        interiors = [set(p[1:-1]) for p in paths]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not interiors[i] & interiors[j]

    def test_disjoint_paths_exhausted_returns_fewer(self):
        net = self.build_diamond()
        paths = net.disjoint_paths("s1", "s2", 10)
        assert len(paths) == 3

    def test_disjoint_paths_no_path_raises(self):
        net = self.build_diamond()
        switch(net, "island")
        with pytest.raises(NetworkError):
            net.disjoint_paths("s1", "island", 2)


class TestRun:
    def test_run_until(self):
        net = Network()
        fired = []
        net.sim.schedule(0.5, lambda: fired.append(1))
        net.run(until=1.0)
        assert fired == [1]
        assert net.sim.now == 1.0
