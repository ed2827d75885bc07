"""Tests for the OF 1.0 match structure, actions and control messages."""

import copy
import dataclasses
import pickle

import pytest

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Packet,
    Vlan,
)
from repro.openflow.actions import (
    PORT_CONTROLLER,
    PORT_FLOOD,
    Output,
    SetDlDst,
    SetDlSrc,
    SetNwDst,
    SetNwSrc,
    SetTpDst,
    SetTpSrc,
    SetVlanVid,
    StripVlan,
    flood,
    to_controller,
)
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod

M1, M2, M3 = (MacAddress.from_index(i) for i in (1, 2, 3))
IP1, IP2, IP3 = (IpAddress.from_index(i) for i in (1, 2, 3))


def udp_packet(vlan=None, tos=0):
    packet = Packet.udp(M1, M2, IP1, IP2, 1000, 2000, payload=b"x", vlan=vlan)
    packet.ip.tos = tos
    return packet


class TestMatch:
    def test_wildcard_matches_everything(self):
        match = Match.wildcard()
        assert match.matches(udp_packet(), in_port=1)
        assert match.matches(Packet.icmp_echo(M1, M2, IP1, IP2, 1, 1), in_port=9)

    def test_in_port(self):
        match = Match(in_port=3)
        assert match.matches(udp_packet(), 3)
        assert not match.matches(udp_packet(), 4)

    def test_dl_fields(self):
        assert Match(dl_src=M1).matches(udp_packet(), 1)
        assert not Match(dl_src=M3).matches(udp_packet(), 1)
        assert Match(dl_dst=M2).matches(udp_packet(), 1)
        assert not Match(dl_dst=M3).matches(udp_packet(), 1)
        assert Match(dl_type=0x0800).matches(udp_packet(), 1)
        assert not Match(dl_type=0x0806).matches(udp_packet(), 1)

    def test_vlan_fields(self):
        tagged = udp_packet(vlan=Vlan(42, pcp=5))
        assert Match(dl_vlan=42).matches(tagged, 1)
        assert not Match(dl_vlan=43).matches(tagged, 1)
        assert Match(dl_vlan_pcp=5).matches(tagged, 1)
        assert not Match(dl_vlan=42).matches(udp_packet(), 1)  # untagged

    def test_nw_fields(self):
        assert Match(nw_src=IP1, nw_dst=IP2).matches(udp_packet(), 1)
        assert not Match(nw_src=IP3).matches(udp_packet(), 1)
        assert Match(nw_proto=IP_PROTO_UDP).matches(udp_packet(), 1)
        assert not Match(nw_proto=IP_PROTO_TCP).matches(udp_packet(), 1)
        assert Match(nw_tos=4).matches(udp_packet(tos=4), 1)

    def test_nw_fields_require_ip(self):
        from repro.net.packet import Ethernet

        raw = Packet(Ethernet(M2, M1, 0x88B5), payload=b"x")
        assert not Match(nw_src=IP1).matches(raw, 1)

    def test_tp_fields_udp(self):
        assert Match(tp_src=1000, tp_dst=2000).matches(udp_packet(), 1)
        assert not Match(tp_dst=2001).matches(udp_packet(), 1)

    def test_tp_fields_icmp_type_code(self):
        ping = Packet.icmp_echo(M1, M2, IP1, IP2, 1, 1)
        assert Match(tp_src=ICMP_ECHO_REQUEST, tp_dst=0).matches(ping, 1)
        assert not Match(tp_src=0).matches(ping, 1)

    def test_tp_fields_require_transport(self):
        from repro.net.packet import Ethernet, Ipv4

        packet = Packet(Ethernet(M2, M1), Ipv4(IP1, IP2, 99), None, b"")
        assert not Match(tp_src=1).matches(packet, 1)

    def test_from_packet_exact(self):
        packet = udp_packet(vlan=Vlan(7))
        match = Match.from_packet(packet, in_port=2)
        assert match.matches(packet, 2)
        assert not match.matches(packet, 3)

    def test_from_packet_matches_only_identical(self):
        match = Match.from_packet(udp_packet(), in_port=1)
        other = Packet.udp(M1, M2, IP1, IP2, 1000, 2001)
        assert not match.matches(other, 1)

    def test_equality_and_hash(self):
        a = Match(dl_dst=M2, tp_dst=80)
        b = Match(dl_dst=M2, tp_dst=80)
        c = Match(dl_dst=M2, tp_dst=81)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a match"

    def test_repr_lists_set_fields(self):
        assert "dl_dst" in repr(Match(dl_dst=M2))
        assert repr(Match()) == "Match(*)"

    def test_typed_addresses_are_kept_and_others_parsed(self):
        match = Match(dl_src=M1, dl_dst=str(M2), nw_src=IP1, nw_dst=int(IP2))
        assert match.dl_src is M1 and match.nw_src is IP1
        assert (match.dl_dst, match.nw_dst) == (M2, IP2)

    def test_copy_is_equal_and_independent(self):
        match = Match.from_packet(udp_packet(vlan=Vlan(7)), in_port=2)
        twin = match.copy()
        assert twin == match and twin is not match
        twin.dl_dst = M3
        assert match.dl_dst == M2


class TestActions:
    def test_set_dl_src_dst(self):
        packet = udp_packet()
        SetDlSrc(M3).apply(packet)
        SetDlDst(M1).apply(packet)
        assert packet.eth.src == M3 and packet.eth.dst == M1

    def test_set_vlan_adds_or_rewrites(self):
        packet = udp_packet()
        SetVlanVid(10).apply(packet)
        assert packet.vlan.vid == 10
        SetVlanVid(20).apply(packet)
        assert packet.vlan.vid == 20

    def test_strip_vlan(self):
        packet = udp_packet(vlan=Vlan(5))
        StripVlan().apply(packet)
        assert packet.vlan is None

    def test_set_nw_fields(self):
        packet = udp_packet()
        SetNwSrc(IP3).apply(packet)
        SetNwDst(IP1).apply(packet)
        assert packet.ip.src == IP3 and packet.ip.dst == IP1

    def test_set_nw_noop_on_non_ip(self):
        from repro.net.packet import Ethernet

        packet = Packet(Ethernet(M2, M1, 0x88B5), payload=b"")
        SetNwSrc(IP3).apply(packet)  # must not crash
        assert packet.ip is None

    def test_set_tp_fields(self):
        packet = udp_packet()
        SetTpSrc(1).apply(packet)
        SetTpDst(2).apply(packet)
        assert packet.l4.sport == 1 and packet.l4.dport == 2

    def test_set_tp_noop_on_icmp(self):
        ping = Packet.icmp_echo(M1, M2, IP1, IP2, 1, 1)
        SetTpSrc(1).apply(ping)
        assert ping.l4.icmp_type == ICMP_ECHO_REQUEST

    def test_action_equality(self):
        assert Output(1) == Output(1) and Output(1) != Output(2)
        assert SetDlSrc(M1) == SetDlSrc(M1)
        assert SetVlanVid(1) != SetVlanVid(2)
        assert StripVlan() == StripVlan()
        assert len({Output(1), Output(1), Output(2)}) == 2

    def test_virtual_port_helpers(self):
        assert flood().port == PORT_FLOOD
        assert to_controller().port == PORT_CONTROLLER
        assert "FLOOD" in repr(flood())

    @pytest.mark.parametrize(
        "action",
        [Output(1), SetDlSrc(M1), SetDlDst(M2), SetVlanVid(3), StripVlan(),
         SetNwSrc(IP1), SetNwDst(IP2), SetTpSrc(80), SetTpDst(443)],
        ids=lambda action: type(action).__name__,
    )
    def test_actions_are_read_only_values(self, action):
        for name in (*action.__slots__, "note"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(action, name, 9)
        for name in action.__slots__:
            with pytest.raises(AttributeError, match="read-only"):
                delattr(action, name)
        assert pickle.loads(pickle.dumps(action)) == action
        assert copy.deepcopy(action) == action


class TestMessages:
    def test_flow_mod_is_a_hashable_frozen_value(self):
        def mod(port=2):
            return FlowMod("add", Match(dl_dst=M2), [Output(port)], priority=5)

        assert mod().actions == (Output(2),)
        assert mod() == mod() and hash(mod()) == hash(mod())
        assert mod() != mod(port=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mod().priority = 6
        moved = dataclasses.replace(mod(), priority=6, actions=[Output(3)])
        assert (moved.priority, moved.actions) == (6, (Output(3),))
