"""Tests for the trusted combiner endpoints (the one hub is an
endpoint's hub role)."""

import pytest

from repro.core.alarms import ALARM_SPOOFED_BRANCH
from repro.core.compare import CompareConfig, CompareContext, CompareCore
from repro.core.endpoint import (
    MODE_COMBINE,
    MODE_DUP,
    CombinerEndpoint,
    branch_marker,
)
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.net.node import NetworkError


def udp(a, b, ident=0):
    return Packet.udp(a.mac, b.mac, a.ip, b.ip, 1, 5001, ident=ident)


def build_endpoint_rig(mode=MODE_COMBINE, mark_sources=False, k=3):
    """An endpoint with one external host, k branch sinks and an
    in-process compare backing (combine mode)."""
    net = Network(seed=1)
    endpoint = CombinerEndpoint(
        net.sim, "e", trace_bus=net.trace, mode=mode, mark_sources=mark_sources
    )
    net.add_node(endpoint)
    ext = net.add_host("ext", promiscuous=True)
    net.connect(ext, endpoint)
    branches = []
    for i in range(k):
        sink = net.add_host(f"r{i}", promiscuous=True)
        link = net.connect(endpoint, sink)
        endpoint.assign_branch(link.a.port_no, i)
        branches.append(sink)
    return net, endpoint, ext, branches


class TestEndpointHubRole:
    def test_external_ingress_duplicated_to_branches(self):
        net, endpoint, ext, branches = build_endpoint_rig(mode=MODE_DUP)
        got = {i: [] for i in range(3)}
        for i, sink in enumerate(branches):
            sink.bind_raw(got[i].append)
        ext.send(udp(ext, branches[0]))
        net.run()
        assert all(len(got[i]) == 1 for i in range(3))
        assert endpoint.estats.duplicated == 3

    def test_copies_are_independent_objects(self):
        net, endpoint, ext, branches = build_endpoint_rig(mode=MODE_DUP, k=2)
        received = []
        for sink in branches:
            sink.bind_raw(received.append)
        ext.send(udp(ext, branches[0]))
        net.run()
        assert received[0] is not received[1]
        assert received[0] == received[1]

    def test_source_marking_rewrites_dl_src(self):
        net, endpoint, ext, branches = build_endpoint_rig(
            mode=MODE_DUP, mark_sources=True
        )
        got = []
        branches[1].bind_raw(got.append)
        ext.send(udp(ext, branches[1]))
        net.run()
        assert got[0].eth.src == branch_marker(1)

    def test_mac_learning_on_external_ingress(self):
        net, endpoint, ext, branches = build_endpoint_rig(mode=MODE_DUP)
        ext.send(udp(ext, branches[0]))
        net.run()
        ext_port = net.port_no_between("e", "ext")
        assert endpoint._mac_table[ext.mac] == ext_port


class TestEndpointDupMode:
    def test_branch_arrivals_forwarded_unfiltered(self):
        net, endpoint, ext, branches = build_endpoint_rig(mode=MODE_DUP)
        got = []
        ext.bind_raw(got.append)
        packet = udp(branches[0], ext)
        for sink in branches:
            sink.send(packet.copy())
        net.run()
        assert len(got) == 3  # duplicates pass through

    def test_unknown_destination_floods_external_only(self):
        net, endpoint, ext, branches = build_endpoint_rig(mode=MODE_DUP)
        ext2 = net.add_host("ext2", promiscuous=True)
        net.connect(ext2, endpoint)
        got_ext, got_ext2, got_branch = [], [], []
        ext.bind_raw(got_ext.append)
        ext2.bind_raw(got_ext2.append)
        branches[1].bind_raw(got_branch.append)
        branches[0].send(udp(branches[0], ext2))
        net.run()
        # flooded to both external hosts, never back into branches
        assert len(got_ext) == 1 and len(got_ext2) == 1
        assert got_branch == []


class TestEndpointCombineMode:
    def build_combine(self, mark_sources=False):
        net, endpoint, ext, branches = build_endpoint_rig(
            mode=MODE_COMBINE, mark_sources=mark_sources
        )
        core = CompareCore(
            net.sim, CompareConfig(k=3, buffer_timeout=0.01), trace_bus=net.trace
        )
        # in-process attachment (as the virtualized egress uses it)
        context = CompareContext(
            scope=endpoint.name,
            release=endpoint.handle_release,
            block_branch=endpoint.block_branch_ingress,
        )
        endpoint._submit_to_compare = (  # route submissions directly
            lambda packet, branch, claim=None: core.submit(
                packet, branch, context, claim=claim
            )
        )
        return net, endpoint, ext, branches, core

    def test_majority_released_to_external(self):
        net, endpoint, ext, branches, core = self.build_combine()
        got = []
        ext.bind_raw(got.append)
        packet = udp(branches[0], ext)
        # teach the endpoint where ext lives
        ext.send(udp(ext, branches[0], ident=99))
        net.run()
        for sink in branches[:2]:
            sink.send(packet.copy())
        net.run(until=net.sim.now + 0.05)
        delivered = [p for p in got if p.ip.ident == 0]
        assert len(delivered) == 1
        assert endpoint.estats.released_out == 1

    def test_minority_never_leaves(self):
        net, endpoint, ext, branches, core = self.build_combine()
        got = []
        ext.bind_raw(got.append)
        branches[2].send(udp(branches[2], ext))
        net.run(until=0.05)
        assert got == []

    def test_spoofed_marker_dropped_with_alarm(self):
        net, endpoint, ext, branches, core = self.build_combine(mark_sources=True)
        spoofed = udp(branches[0], ext)
        spoofed.eth.src = branch_marker(2)  # branch 0 claims to be branch 2
        branches[0].send(spoofed)
        net.run(until=0.01)
        assert endpoint.estats.spoof_drops == 1
        assert endpoint.alarms.count(ALARM_SPOOFED_BRANCH) == 1

    def test_release_honours_claim_port(self):
        net, endpoint, ext, branches, core = self.build_combine()
        ext2 = net.add_host("ext2", promiscuous=True)
        net.connect(ext2, endpoint)
        claim = net.port_no_between("e", "ext2")
        got_ext, got_ext2 = [], []
        ext.bind_raw(got_ext.append)
        ext2.bind_raw(got_ext2.append)
        packet = udp(branches[0], ext)  # dst mac is ext's...
        packet.meta = {"claim": claim}
        endpoint.handle_release(packet)
        net.run()
        # ...but the claim wins over the MAC table
        assert len(got_ext2) == 1 and got_ext == []


class TestEndpointWiring:
    def test_duplicate_branch_port_rejected(self):
        net, endpoint, _ext, _branches = build_endpoint_rig()
        port_no = endpoint.branch_ports[0]
        with pytest.raises(NetworkError):
            endpoint.assign_branch(port_no, 9)

    def test_invalid_mode_rejected(self):
        net = Network(seed=1)
        with pytest.raises(ValueError):
            CombinerEndpoint(net.sim, "bad", mode="nonsense")

    def test_branch_introspection(self):
        _net, endpoint, _ext, _branches = build_endpoint_rig()
        assert endpoint.branch_ids == [0, 1, 2]
        assert endpoint.branch_of_port(endpoint.port_of_branch(1)) == 1
        assert endpoint.branch_of_port(999) is None

    def test_external_ports_excludes_branches_and_compare(self):
        net, endpoint, ext, _branches = build_endpoint_rig()
        externals = endpoint.external_ports()
        assert externals == [net.port_no_between("e", "ext")]

    def test_block_branch_ingress(self):
        net, endpoint, ext, branches = build_endpoint_rig(mode=MODE_DUP)
        got = []
        ext.bind_raw(got.append)
        endpoint.block_branch_ingress(0, duration=1.0)
        branches[0].send(udp(branches[0], ext))
        net.run(until=0.1)
        assert got == []

    def test_submit_without_compare_attachment_raises(self):
        net, endpoint, _ext, branches = build_endpoint_rig(mode=MODE_COMBINE)
        with pytest.raises(NetworkError):
            branches[0].send(udp(branches[0], _ext))
            net.run()
