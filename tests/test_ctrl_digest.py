"""Tests for canonical control-message encodings (repro.ctrl.digest).

The voter's entire security argument rests on two properties pinned
here: *stability* (re-encoding an equal message yields equal bytes) and
*injectivity* (any single-field mutation changes the bytes)."""

import dataclasses

import pytest

from repro.ctrl.digest import (
    DigestError,
    digest,
    encode_action,
    encode_actions,
    encode_match,
)
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.openflow.actions import (
    Output,
    SetDlDst,
    SetDlSrc,
    SetNwDst,
    SetNwSrc,
    SetTpDst,
    SetTpSrc,
    SetVlanVid,
    StripVlan,
)
from repro.openflow.match import Match
from repro.openflow.messages import (
    FLOWMOD_ADD,
    FLOWMOD_DELETE,
    FlowMod,
    PacketOut,
)

MAC1 = MacAddress.from_index(1)
MAC2 = MacAddress.from_index(2)
IP1 = IpAddress.from_index(1)
IP2 = IpAddress.from_index(2)

#: one instance of every action type the OF 1.0 model supports
ALL_ACTIONS = [
    Output(2),
    SetDlSrc(MAC1),
    SetDlDst(MAC2),
    SetVlanVid(7),
    StripVlan(),
    SetNwSrc(IP1),
    SetNwDst(IP2),
    SetTpSrc(80),
    SetTpDst(443),
]


FULL_MATCH_FIELDS = dict(
    in_port=1,
    dl_src=MAC1,
    dl_dst=MAC2,
    dl_vlan=10,
    dl_vlan_pcp=3,
    dl_type=0x0800,
    nw_tos=4,
    nw_proto=17,
    nw_src=IP1,
    nw_dst=IP2,
    tp_src=5000,
    tp_dst=5001,
)


def full_match(**overrides):
    # Match is a __slots__ class, not a dataclass: mutate via kwargs.
    return Match(**{**FULL_MATCH_FIELDS, **overrides})


def flow_mod(**overrides):
    base = dict(
        command=FLOWMOD_ADD,
        match=full_match(),
        actions=tuple(ALL_ACTIONS),
        priority=10,
        idle_timeout=1.5,
        hard_timeout=3.0,
        cookie=42,
    )
    base.update(overrides)
    return FlowMod(**base)


def pkt(payload=b"hello"):
    return Packet.udp(MAC1, MAC2, IP1, IP2, 1, 2, payload=payload, ident=9)


class TestRoundTrip:
    def test_flow_mod_reconstruction_digests_equal(self):
        # Rebuild field by field from the original's values: equal
        # protocol content must give equal bytes across all action types.
        original = flow_mod()
        rebuilt = FlowMod(
            command=str(original.command),
            match=Match(
                in_port=original.match.in_port,
                dl_src=MacAddress(str(original.match.dl_src)),
                dl_dst=MacAddress(str(original.match.dl_dst)),
                dl_vlan=original.match.dl_vlan,
                dl_vlan_pcp=original.match.dl_vlan_pcp,
                dl_type=original.match.dl_type,
                nw_tos=original.match.nw_tos,
                nw_proto=original.match.nw_proto,
                nw_src=IpAddress(str(original.match.nw_src)),
                nw_dst=IpAddress(str(original.match.nw_dst)),
                tp_src=original.match.tp_src,
                tp_dst=original.match.tp_dst,
            ),
            actions=[
                Output(2),
                SetDlSrc(MacAddress(str(MAC1))),
                SetDlDst(MacAddress(str(MAC2))),
                SetVlanVid(7),
                StripVlan(),
                SetNwSrc(IpAddress(str(IP1))),
                SetNwDst(IpAddress(str(IP2))),
                SetTpSrc(80),
                SetTpDst(443),
            ],
            priority=10,
            idle_timeout=1.5,
            hard_timeout=3.0,
            cookie=42,
        )
        assert digest(original) == digest(rebuilt)

    def test_digest_is_deterministic(self):
        assert digest(flow_mod()) == digest(flow_mod())

    def test_packet_out_round_trip(self):
        a = PacketOut(packet=pkt(), actions=[Output(1)], in_port=2)
        b = PacketOut(packet=pkt(), actions=[Output(1)], in_port=2)
        assert digest(a) == digest(b)

    @pytest.mark.parametrize("action", ALL_ACTIONS, ids=lambda a: type(a).__name__)
    def test_every_action_type_encodes(self, action):
        assert isinstance(encode_action(action), bytes)

    def test_wildcard_match_round_trip(self):
        assert encode_match(Match()) == encode_match(Match())


class TestMutationDistinctness:
    @pytest.mark.parametrize(
        "mutation",
        [
            {"command": FLOWMOD_DELETE},
            {"priority": 11},
            {"idle_timeout": 1.6},
            {"hard_timeout": 0.0},
            {"cookie": 43},
            {"actions": tuple(ALL_ACTIONS[:-1])},
            {"match": Match()},
        ],
        ids=lambda m: next(iter(m)),
    )
    def test_flow_mod_single_field_mutations(self, mutation):
        assert digest(flow_mod()) != digest(flow_mod(**mutation))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("in_port", 2),
            # addresses are ints, which pytest would name by value: these
            # keep the ids the cases have always had
            pytest.param("dl_src", MAC2, id="dl_src-value1"),
            pytest.param("dl_dst", MAC1, id="dl_dst-value2"),
            ("dl_vlan", 11),
            ("dl_vlan_pcp", 2),
            ("dl_type", 0x0806),
            ("nw_tos", 5),
            ("nw_proto", 6),
            pytest.param("nw_src", IP2, id="nw_src-value8"),
            pytest.param("nw_dst", IP1, id="nw_dst-value9"),
            ("tp_src", 5002),
            ("tp_dst", 5003),
        ],
    )
    def test_every_match_field_is_significant(self, field, value):
        assert encode_match(full_match()) != encode_match(
            full_match(**{field: value})
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("in_port", 1),
            ("dl_vlan", 0),
            ("dl_vlan_pcp", 0),
            ("dl_type", 0),
            ("nw_tos", 0),
            ("nw_proto", 0),
            ("tp_src", 0),
            ("tp_dst", 0),
        ],
    )
    def test_wildcard_differs_from_zero(self, field, value):
        # None (wildcard) and 0 are different match semantics; the
        # presence prefix must keep their encodings apart.
        assert encode_match(Match()) != encode_match(Match(**{field: value}))

    @pytest.mark.parametrize(
        "a,b",
        [
            (Output(1), Output(2)),
            (SetDlSrc(MAC1), SetDlSrc(MAC2)),
            (SetDlDst(MAC1), SetDlDst(MAC2)),
            (SetVlanVid(1), SetVlanVid(2)),
            (SetNwSrc(IP1), SetNwSrc(IP2)),
            (SetNwDst(IP1), SetNwDst(IP2)),
            (SetTpSrc(1), SetTpSrc(2)),
            (SetTpDst(1), SetTpDst(2)),
        ],
        ids=lambda x: f"{type(x).__name__}",
    )
    def test_action_payload_is_significant(self, a, b):
        assert encode_action(a) != encode_action(b)

    def test_same_payload_different_action_types_differ(self):
        # The tag byte keeps e.g. SetDlSrc/SetDlDst of the same MAC apart.
        assert encode_action(SetDlSrc(MAC1)) != encode_action(SetDlDst(MAC1))
        assert encode_action(SetTpSrc(80)) != encode_action(SetTpDst(80))
        assert encode_action(SetNwSrc(IP1)) != encode_action(SetNwDst(IP1))

    def test_action_order_is_significant(self):
        assert encode_actions([Output(1), StripVlan()]) != encode_actions(
            [StripVlan(), Output(1)]
        )

    def test_packet_out_mutations(self):
        base = PacketOut(packet=pkt(), actions=[Output(1)], in_port=2)
        assert digest(base) != digest(dataclasses.replace(base, in_port=3))
        assert digest(base) != digest(
            dataclasses.replace(base, actions=(Output(2),))
        )
        assert digest(base) != digest(
            dataclasses.replace(base, packet=pkt(payload=b"bye"))
        )
        buffered = PacketOut(packet=None, actions=[Output(1)], in_port=2, buffer_id=5)
        assert digest(buffered) != digest(
            dataclasses.replace(buffered, buffer_id=6)
        )
        assert digest(base) != digest(
            dataclasses.replace(base, buffer_id=7)
        )

    def test_flow_mod_and_packet_out_never_collide(self):
        # Distinct top-level tags: the two message kinds cannot alias.
        assert digest(flow_mod())[0:1] != digest(
            PacketOut(packet=pkt(), actions=[Output(1)], in_port=2)
        )[0:1]


class TestErrors:
    def test_unknown_action_rejected(self):
        class Weird:
            pass

        with pytest.raises(DigestError):
            encode_action(Weird())

    def test_unknown_message_rejected(self):
        with pytest.raises(DigestError):
            digest(object())

    def test_packet_in_is_not_a_control_output(self):
        from repro.openflow.messages import PacketIn

        with pytest.raises(DigestError):
            digest(PacketIn(datapath_id=1, packet=pkt(), in_port=1))
