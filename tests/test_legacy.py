"""Tests for the legacy IPv4 router and its combiner integration
(the Section IX 'extends to legacy routers' claim)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.net.legacy import ICMP_TIME_EXCEEDED, LegacyRouter, RouteEntry


def make_router(net, name="r1", **kwargs):
    router = LegacyRouter(
        net.sim,
        name,
        mac=MacAddress.from_index(200),
        ip=IpAddress("10.0.255.1"),
        trace_bus=net.trace,
        **kwargs,
    )
    net.add_node(router)
    return router


class TestLpm:
    def test_longest_prefix_wins(self):
        net = Network()
        router = make_router(net)
        m = MacAddress.from_index
        router.add_route(IpAddress("10.0.0.0"), 8, 1, m(1))
        router.add_route(IpAddress("10.1.0.0"), 16, 2, m(2))
        router.add_route(IpAddress("10.1.2.0"), 24, 3, m(3))
        assert router.lookup(IpAddress("10.9.9.9")).out_port == 1
        assert router.lookup(IpAddress("10.1.9.9")).out_port == 2
        assert router.lookup(IpAddress("10.1.2.3")).out_port == 3

    def test_default_route(self):
        net = Network()
        router = make_router(net)
        router.add_default_route(5, MacAddress.from_index(9))
        assert router.lookup(IpAddress("192.168.1.1")).out_port == 5

    def test_no_route(self):
        net = Network()
        router = make_router(net)
        router.add_route(IpAddress("10.0.0.0"), 8, 1, MacAddress.from_index(1))
        assert router.lookup(IpAddress("11.0.0.1")) is None

    def test_invalid_prefix_len(self):
        net = Network()
        router = make_router(net)
        with pytest.raises(ValueError):
            router.add_route(IpAddress("10.0.0.0"), 33, 1, MacAddress.from_index(1))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, (1 << 32) - 1),
                st.integers(0, 32),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, (1 << 32) - 1),
    )
    @settings(max_examples=150)
    def test_lpm_matches_bruteforce(self, routes, probe):
        net = Network()
        router = make_router(net)
        entries = []
        for addr, plen, port in routes:
            entry = RouteEntry(
                IpAddress(addr), plen, port, MacAddress.from_index(port)
            )
            entries.append(entry)
            router.add_route(entry.prefix, plen, port, entry.next_hop_mac)
        ip = IpAddress(probe)
        expected = max(
            (e for e in entries if e.matches(ip)),
            key=lambda e: e.prefix_len,
            default=None,
        )
        got = router.lookup(ip)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.prefix_len == expected.prefix_len


class TestForwarding:
    def rig(self):
        """h1 -- r1 -- r2 -- h2 across three subnets."""
        net = Network(seed=21)
        h1 = net.add_host("h1", ip=IpAddress("10.1.0.10"))
        h2 = net.add_host("h2", ip=IpAddress("10.2.0.10"))
        r1 = LegacyRouter(net.sim, "r1", MacAddress.from_index(101),
                          IpAddress("10.1.0.1"), trace_bus=net.trace)
        r2 = LegacyRouter(net.sim, "r2", MacAddress.from_index(102),
                          IpAddress("10.2.0.1"), trace_bus=net.trace)
        net.add_node(r1)
        net.add_node(r2)
        net.connect(h1, r1)
        net.connect(r1, r2)
        net.connect(r2, h2)
        r1.add_route(IpAddress("10.2.0.0"), 16,
                     net.port_no_between("r1", "r2"), r2.mac)
        r1.add_route(IpAddress("10.1.0.0"), 16,
                     net.port_no_between("r1", "h1"), h1.mac)
        r2.add_route(IpAddress("10.2.0.0"), 16,
                     net.port_no_between("r2", "h2"), h2.mac)
        r2.add_route(IpAddress("10.1.0.0"), 16,
                     net.port_no_between("r2", "r1"), r1.mac)
        return net, h1, h2, r1, r2

    def test_two_hop_ping(self):
        net, h1, h2, r1, r2 = self.rig()
        replies = []
        h1.bind_icmp(replies.append)
        # h1 sends to its gateway's MAC, final IP dst
        h1.send(Packet.icmp_echo(h1.mac, r1.mac, h1.ip, h2.ip, 1, 1))
        net.run()
        assert len(replies) == 1
        assert replies[0].l4.is_echo_reply
        assert r1.forwarded == 2 and r2.forwarded == 2  # request + reply

    def test_ttl_decremented_per_hop(self):
        net, h1, h2, r1, r2 = self.rig()
        seen = []
        h2.bind_raw(seen.append)
        packet = Packet.icmp_echo(h1.mac, r1.mac, h1.ip, h2.ip, 1, 1, ttl=64)
        h1.send(packet)
        net.run(until=0.01)
        assert seen[0].ip.ttl == 62

    def test_mac_rewritten_per_hop(self):
        net, h1, h2, r1, r2 = self.rig()
        seen = []
        h2.bind_raw(seen.append)
        h1.send(Packet.icmp_echo(h1.mac, r1.mac, h1.ip, h2.ip, 1, 1))
        net.run(until=0.01)
        assert seen[0].eth.src == r2.mac
        assert seen[0].eth.dst == h2.mac

    def test_ttl_expiry_generates_time_exceeded(self):
        net, h1, h2, r1, r2 = self.rig()
        errors = []
        h1.bind_icmp(errors.append)
        h1.send(Packet.icmp_echo(h1.mac, r1.mac, h1.ip, h2.ip, 1, 1, ttl=2))
        net.run(until=0.01)
        # request dies at r2 (ttl 2 -> 1 at r1, <=1 at r2)
        assert len(errors) == 1
        assert errors[0].l4.icmp_type == ICMP_TIME_EXCEEDED
        assert errors[0].ip.src == r2.ip
        assert len(errors[0].payload) > 0  # quotes the offending header

    def test_no_route_drops(self):
        net, h1, h2, r1, r2 = self.rig()
        h1.send(
            Packet.icmp_echo(h1.mac, r1.mac, h1.ip, IpAddress("99.9.9.9"), 1, 1)
        )
        net.run(until=0.01)
        assert r1.dropped_no_route == 1

    def test_wrong_dst_mac_ignored(self):
        net, h1, h2, r1, r2 = self.rig()
        h1.send(Packet.icmp_echo(h1.mac, h2.mac, h1.ip, h2.ip, 1, 1))
        net.run(until=0.01)
        assert r1.dropped_not_for_us == 1

    def test_non_ip_dropped(self):
        from repro.net.packet import Ethernet

        net, h1, h2, r1, r2 = self.rig()
        h1.send(Packet(Ethernet(r1.mac, h1.mac, 0x88B5), payload=b"x"))
        net.run(until=0.01)
        assert r1.dropped_no_route == 1


class TestLegacyCombiner:
    """The Section IX claim: NetCo over legacy routers.

    Each branch is a LegacyRouter; because every hop rewrites eth.src,
    the compare votes with the source-masked policy.  TTL decrement is
    identical across branches, so the copies agree on everything else.
    """

    def build(self, k=3):
        from repro.core.compare import CompareConfig, CompareCore
        from repro.core.endpoint import CombinerEndpoint
        from repro.core.policy import BitExactPolicy, mask_src_mac_policy
        from repro.core.combiner import CompareHost

        net = Network(seed=22)
        h1 = net.add_host("h1", ip=IpAddress("10.1.0.10"))
        h2 = net.add_host("h2", ip=IpAddress("10.2.0.10"))
        endpoint_a = CombinerEndpoint(net.sim, "sA", trace_bus=net.trace)
        endpoint_b = CombinerEndpoint(net.sim, "sB", trace_bus=net.trace)
        net.add_node(endpoint_a)
        net.add_node(endpoint_b)
        net.connect(h1, endpoint_a)
        net.connect(h2, endpoint_b)

        routers = []
        for i in range(k):
            router = LegacyRouter(
                net.sim, f"lr{i}", MacAddress.from_index(150 + i),
                IpAddress(f"10.9.0.{i + 1}"), trace_bus=net.trace,
                accept_any_dst_mac=True,
            )
            net.add_node(router)
            link_a = net.connect(endpoint_a, router)
            net.connect(router, endpoint_b)
            endpoint_a.assign_branch(link_a.a.port_no, i)
            endpoint_b.assign_branch(
                net.port_no_between("sB", router.name), i
            )
            router.add_route(IpAddress("10.2.0.0"), 16,
                             net.port_no_between(router.name, "sB"), h2.mac)
            router.add_route(IpAddress("10.1.0.0"), 16,
                             net.port_no_between(router.name, "sA"), h1.mac)
            routers.append(router)

        config = CompareConfig(
            k=k,
            buffer_timeout=2e-3,
            policy=mask_src_mac_policy(BitExactPolicy()),
        )
        core = CompareCore(net.sim, config, trace_bus=net.trace)
        host = CompareHost(net.sim, "h3", core, trace_bus=net.trace)
        net.add_node(host)
        for endpoint in (endpoint_a, endpoint_b):
            net.connect(endpoint, host)
            endpoint.assign_compare_port(
                net.port_no_between(endpoint.name, "h3")
            )
            host.register_endpoint(
                net.port_no_between("h3", endpoint.name), endpoint
            )
        return net, h1, h2, routers, core

    def test_benign_legacy_bundle_delivers(self):
        net, h1, h2, routers, core = self.build()
        replies = []
        h1.bind_icmp(replies.append)
        for i in range(5):
            net.sim.schedule(
                i * 1e-3,
                lambda i=i: h1.send(
                    Packet.icmp_echo(
                        h1.mac, routers[0].mac, h1.ip, h2.ip, 1, i,
                        ip_ident=h1.next_ip_ident(),
                    )
                ),
            )
        net.run(until=0.05)
        assert len(replies) == 5
        assert core.stats.released == 10  # 5 requests + 5 replies

    def test_malicious_legacy_router_masked(self):
        net, h1, h2, routers, core = self.build()
        # router 2 blackholes h2-bound traffic: a misrouting legacy box
        routers[2]._routes = [
            r for r in routers[2]._routes if str(r.prefix) != "10.2.0.0"
        ]
        replies = []
        h1.bind_icmp(replies.append)
        for i in range(5):
            net.sim.schedule(
                i * 1e-3,
                lambda i=i: h1.send(
                    Packet.icmp_echo(
                        h1.mac, routers[0].mac, h1.ip, h2.ip, 1, i,
                        ip_ident=h1.next_ip_ident(),
                    )
                ),
            )
        net.run(until=0.05)
        assert len(replies) == 5  # 2-of-3 quorum carries the traffic
