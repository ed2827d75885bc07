"""Wire-image cache, copy-on-write and the Packet mutability contract.

The compare element votes on exact packet bytes, so the cached wire
image must never go stale: every adversarial rewrite the repo models
(VLAN moves, MAC retargeting, payload corruption, TTL games) must change
``to_bytes()``/``__hash__`` exactly as a cache-less packet would.  These
tests pin that, plus the documented contract itself: packets hash by
value, so mutating one *after* using it as a dict key is a caller bug,
and mutating a header object shared by copy-on-write raises.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.modify import dst_mac_rewrite, vlan_rewrite
from repro.core.policy import BitExactPolicy
from repro.core.policy_ablation import HeaderOnlyPolicy
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import (
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Ethernet,
    Icmp,
    Ipv4,
    Packet,
    PacketError,
    Tcp,
    Udp,
    Vlan,
    incremental_checksum_update,
    internet_checksum,
)
from repro.net.stamp import PacketBatch, UdpTemplate
from tests.test_packet_properties import reference_parse


def make_packet(payload: bytes = b"hello-netco", vlan: Vlan = None) -> Packet:
    return Packet.udp(
        src_mac=MacAddress.from_index(1),
        dst_mac=MacAddress.from_index(2),
        src_ip=IpAddress.from_index(1),
        dst_ip=IpAddress.from_index(2),
        sport=4000,
        dport=5001,
        payload=payload,
        vlan=vlan,
    )


class TestWireCache:
    def test_to_bytes_is_memoised(self):
        packet = make_packet()
        assert packet.to_bytes() is packet.to_bytes()

    def test_wire_cache_reports_validity(self):
        packet = make_packet()
        assert packet.wire_cache() is None
        wire = packet.to_bytes()
        assert packet.wire_cache() is wire
        packet.ip.ttl = 5
        assert packet.wire_cache() is None

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: setattr(p.eth, "src", MacAddress.from_index(9)),
            lambda p: setattr(p.eth, "dst", MacAddress.from_index(9)),
            lambda p: setattr(p.ip, "ttl", 3),
            lambda p: setattr(p.ip, "src", IpAddress.from_index(9)),
            lambda p: setattr(p.l4, "dport", 9999),
            lambda p: setattr(p, "payload", b"tampered"),
            lambda p: setattr(p, "vlan", Vlan(7)),
            lambda p: setattr(p, "eth", Ethernet(MacAddress.from_index(3),
                                                 MacAddress.from_index(4))),
        ],
        ids=["eth.src", "eth.dst", "ip.ttl", "ip.src", "l4.dport",
             "payload", "vlan-attach", "eth-replace"],
    )
    def test_any_mutation_invalidates(self, mutate):
        packet = make_packet()
        before = packet.to_bytes()
        mutate(packet)
        after = packet.to_bytes()
        assert after != before
        assert after == packet._serialise()  # cache agrees with scratch build

    def test_serialisation_matches_scratch_build_when_cached(self):
        packet = make_packet(vlan=Vlan(10, pcp=3))
        assert packet.to_bytes() == packet._serialise()

    def test_wire_len_uses_cache_and_survives_invalidation(self):
        packet = make_packet()
        cold = packet.wire_len
        assert cold == len(packet.to_bytes())
        packet.payload = b"xx" * 300
        assert packet.wire_len == len(packet.to_bytes())


class TestAdversarialRewrites:
    """The rewrites adversary behaviors apply must defeat the cache."""

    def test_vlan_rewrite_changes_bytes_and_hash(self):
        packet = make_packet()
        packet.to_bytes()  # warm
        copy = packet.copy()
        before_hash = hash(copy)
        vlan_rewrite(66)(copy)
        assert copy.to_bytes() != packet.to_bytes()
        assert hash(copy) != before_hash
        parsed = Packet.parse(copy.to_bytes())
        assert parsed.vlan is not None and parsed.vlan.vid == 66

    def test_vlan_vid_rewrite_on_tagged_packet(self):
        packet = make_packet(vlan=Vlan(5))
        packet.to_bytes()
        copy = packet.copy()
        vlan_rewrite(99)(copy)
        assert copy.to_bytes() != packet.to_bytes()
        assert Packet.parse(copy.to_bytes()).vlan.vid == 99
        assert Packet.parse(packet.to_bytes()).vlan.vid == 5

    def test_dst_mac_rewrite_changes_bytes(self):
        packet = make_packet()
        packet.to_bytes()
        copy = packet.copy()
        dst_mac_rewrite(MacAddress.from_index(77))(copy)
        assert copy.to_bytes() != packet.to_bytes()
        assert Packet.parse(copy.to_bytes()).eth.dst == MacAddress.from_index(77)

    def test_payload_corruption_changes_bytes(self):
        packet = make_packet()
        packet.to_bytes()
        copy = packet.copy()
        corrupted = bytearray(copy.payload)
        corrupted[0] ^= 0xFF
        copy.payload = bytes(corrupted)
        assert copy.to_bytes() != packet.to_bytes()
        # The original's cached image is untouched.
        assert Packet.parse(packet.to_bytes()).payload == packet.payload


class TestCopyOnWrite:
    def test_warm_copy_shares_wire_image(self):
        packet = make_packet()
        wire = packet.to_bytes()
        copy = packet.copy()
        assert copy.to_bytes() is wire  # shared, not re-serialised

    def test_cold_copy_is_equal_but_independent(self):
        packet = make_packet()
        copy = packet.copy()
        assert copy == packet
        copy.ip.ttl = 9
        assert copy != packet

    def test_mutating_copy_leaves_original_cache_valid(self):
        packet = make_packet()
        wire = packet.to_bytes()
        copy = packet.copy()
        copy.eth.dst = MacAddress.from_index(42)
        assert packet.to_bytes() is wire
        assert copy.to_bytes() != wire

    def test_mutating_original_leaves_copy_intact(self):
        packet = make_packet()
        packet.to_bytes()
        copy = packet.copy()
        packet.ip.ttl = 2
        assert Packet.parse(copy.to_bytes()).ip.ttl == 64

    def test_read_access_keeps_shared_cache(self):
        packet = make_packet()
        wire = packet.to_bytes()
        copy = packet.copy()
        # Property access materialises a private header but the bytes are
        # unchanged, so the shared wire image must stay valid.
        assert copy.eth.src == packet.fields()[0].src
        assert copy.to_bytes() is wire

    @pytest.mark.parametrize("slot,field", [("eth", "dst"), ("ip", "ttl"), ("l4", "dport")])
    def test_materialising_never_revives_a_stale_image(self, slot, field):
        """A private header copy restarts its version at 0, which a stale
        image's snapshot recorded for that header: the image must stay
        stale."""
        packet = make_packet()
        packet.to_bytes()
        setattr(getattr(packet, slot), field, 9)
        twin = packet.copy()  # shares every header
        getattr(packet, slot)  # materialises that one
        assert packet.wire_cache() is None
        assert packet.to_bytes() == packet._serialise()
        assert twin.to_bytes() == twin._serialise()

    def test_meta_never_survives_copy(self):
        packet = make_packet()
        packet.meta = {"branch": 3}
        copy = packet.copy()
        assert copy.meta is None

    def test_fields_does_not_materialise(self):
        packet = make_packet()
        copy = packet.copy()
        eth, _vlan, ip, _l4 = copy.fields()
        assert eth is packet.fields()[0]  # still the shared object
        assert ip is packet.fields()[2]

    @pytest.mark.parametrize("vlan", [None, Vlan(vid=7)], ids=["untagged", "tagged"])
    def test_vote_keys_of_warm_copies_never_serialise(self, monkeypatch, vlan):
        """What the hub's fan-out hands the compare: k CoW copies of one
        warmed packet.  Their vote keys come off the shared wire image."""
        packet = make_packet(vlan=vlan)
        wire = packet.to_bytes()
        header_key = HeaderOnlyPolicy().key(make_packet(vlan=vlan))  # cold build
        copies = [packet.copy() for _ in range(3)]
        monkeypatch.setattr(
            Packet, "_serialise", lambda self: pytest.fail("vote key re-serialised")
        )
        for copy in copies:
            assert BitExactPolicy().key(copy) is wire
            assert HeaderOnlyPolicy().key(copy) == header_key


class TestMutabilityContract:
    def test_stashed_header_reference_mutation_raises(self):
        packet = make_packet()
        stashed = packet.eth  # reference taken before the copy
        packet.copy()
        with pytest.raises(PacketError):
            stashed.src = MacAddress.from_index(9)

    def test_mutation_through_owner_is_fine_after_copy(self):
        packet = make_packet()
        packet.copy()
        packet.eth.src = MacAddress.from_index(9)  # materialises first
        assert packet.fields()[0].src == MacAddress.from_index(9)

    def test_dict_key_then_mutation_is_a_stale_hash(self):
        """The documented bug: value-hashed mutable keys go stale."""
        packet = make_packet()
        stored_hash = hash(packet)
        table = {packet: "entry"}
        packet.ip.ttl = 7
        # The stored slot used the old hash; the mutated packet hashes
        # differently, so no value-equal key can reach the entry any more.
        # (Lookup by the *same object* is not asserted: CPython's dict
        # probe short-circuits on key identity before comparing stored
        # hashes, so it can still stumble on the slot for some hash
        # seeds.)
        assert hash(packet) != stored_hash
        twin = make_packet()
        twin.ip.ttl = 7
        assert twin == packet
        assert twin not in table

    def test_equality_is_over_bytes(self):
        one = make_packet()
        two = make_packet()
        assert one == two and hash(one) == hash(two)
        two.l4.sport = 4001
        assert one != two


class TestInPlaceRewrites:
    @pytest.mark.parametrize("ttl", [2, 3, 17, 64, 128, 255])
    def test_decrement_ttl_patch_is_bit_identical(self, ttl):
        packet = make_packet()
        packet.ip.ttl = ttl
        packet.to_bytes()  # warm: decrement patches the cached image
        packet.decrement_ttl()
        patched = packet.to_bytes()
        assert patched == packet._serialise()
        parsed = Packet.parse(patched)  # parse re-verifies the IP checksum
        assert parsed.ip.ttl == ttl - 1

    def test_decrement_ttl_cold_still_works(self):
        packet = make_packet()
        packet.decrement_ttl()
        assert Packet.parse(packet.to_bytes()).ip.ttl == 63

    def test_decrement_ttl_tagged_packet(self):
        packet = make_packet(vlan=Vlan(12))
        packet.to_bytes()
        packet.decrement_ttl()
        assert packet.to_bytes() == packet._serialise()

    def test_routed_hop_on_cow_copy_keeps_cache(self):
        """A routed hop: copy, then TTL-1 — one serialise for both."""
        packet = make_packet()
        packet.to_bytes()
        hop = packet.copy()
        hop.decrement_ttl()
        assert hop.wire_cache() is not None  # never went cold
        assert hop.to_bytes() == hop._serialise()
        assert packet.to_bytes() == packet._serialise()

    def test_decrement_below_zero_raises(self):
        packet = make_packet()
        packet.ip.ttl = 0
        with pytest.raises(PacketError):
            packet.decrement_ttl()


class TestIncrementalChecksum:
    def test_matches_full_recompute_for_all_ttls(self):
        ip = Ipv4(IpAddress.from_index(1), IpAddress.from_index(2), 17)
        for ttl in range(1, 256):
            ip.ttl = ttl
            full = ip.to_bytes(100)
            old_sum = int.from_bytes(full[10:12], "big")
            old_word = int.from_bytes(full[8:10], "big")
            new_word = ((ttl - 1) << 8) | full[9]
            ip.ttl = ttl - 1
            expect = int.from_bytes(ip.to_bytes(100)[10:12], "big")
            assert incremental_checksum_update(old_sum, old_word, new_word) == expect

    def test_checksum_of_patched_header_verifies(self):
        packet = make_packet()
        packet.to_bytes()
        packet.decrement_ttl()
        wire = packet.to_bytes()
        assert internet_checksum(wire[14:34]) == 0  # RFC 1071 self-check


# ----------------------------------------------------------------------
# wire_len is a maintained attribute: it must track the frame through
# every mutation path without ever consulting the wire cache; and the
# payload, which lives inside the wire image once there is one, must come
# back as the same bytes through every path that replaces that image
# ----------------------------------------------------------------------
_small = st.integers(0, 255)
_payloads = st.binary(max_size=64)


_OPS = ("field", "eth-set", "vlan", "ip", "l4", "payload", "copy", "warm-copy",
        "stale-copy", "warm", "ttl", "eth", "parse")


def _shape(packet: Packet) -> tuple:
    _eth, vlan, ip, l4 = packet.fields()
    return vlan is None, ip is None, type(l4)


def _apply(packet: Packet, payload: bytes, op: str, n: int, data: bytes):
    """Apply one mutation path; return the packet to carry on with and
    the payload it must hold (``payload`` is the reference before)."""
    _eth, vlan, ip, l4 = packet.fields()
    if op == "field":  # a header-field write through the owning packet
        packet.eth.src = MacAddress.from_index(n)
        if ip is not None:
            packet.ip.ident = n
        if isinstance(l4, (Udp, Tcp)):
            packet.l4.sport = 1000 + n
        if vlan is not None:
            packet.vlan.vid = n
    elif op == "eth-set":
        packet.eth = Ethernet(MacAddress.from_index(n), MacAddress.from_index(n + 1))
    elif op == "vlan":
        packet.vlan = Vlan(n) if n % 3 else None
    elif op == "ip":
        proto = (IP_PROTO_UDP, IP_PROTO_TCP, IP_PROTO_ICMP)[n % 3]
        packet.ip = (
            Ipv4(IpAddress.from_index(1), IpAddress.from_index(2), proto) if n % 4 else None
        )
    elif op == "l4":
        packet.l4 = (None, Udp(1, 2), Tcp(3, 4, seq=n), Icmp(8, ident=n))[n % 4]
    elif op == "payload":
        packet.payload = data
        return packet, data
    elif op == "copy":
        return packet.copy(), payload
    elif op == "warm-copy":
        packet.to_bytes()
        return packet.copy(), payload
    elif op == "stale-copy":  # a header write after serialising, then the copy
        packet.to_bytes()
        packet.eth.dst = MacAddress.from_index(n)
        return packet.copy(), payload
    elif op == "warm":
        packet.to_bytes()
    elif op == "ttl":
        if ip is not None and ip.ttl > 0:
            packet.decrement_ttl()
    elif op == "eth":
        packet.eth.dst = MacAddress.from_index(n)
    elif op == "parse":
        try:
            parsed = Packet.parse(packet.to_bytes())
        except PacketError:  # e.g. an l4 header that contradicts ip.proto
            return packet, payload
        if _shape(parsed) == _shape(packet):  # a consistent stack round-trips
            return parsed, payload
        # the frame reads as another stack (an ip.proto the l4 header
        # contradicts): its payload is what that stack's headers leave,
        # which a UDP length read from foreign bytes may cut short
        return parsed, reference_parse(packet.to_bytes()).payload
    return packet, payload


def _assert_holds(packet: Packet, payload: bytes, name: str) -> None:
    read = packet.payload
    assert type(read) is bytes and read == payload, name


class TestWireLenAttribute:
    @given(
        payload=_payloads,
        vlan=st.one_of(st.none(), st.integers(0, 4095).map(Vlan)),
        ops=st.lists(
            st.tuples(st.sampled_from(_OPS), _small, _payloads), max_size=24
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_wire_len_tracks_every_mutation_path(self, payload, vlan, ops):
        packet = make_packet(payload, vlan)
        # every packet ever produced (CoW siblings included), with the
        # payload it must hold
        seen = [[packet, payload]]
        for name, n, data in ops:
            packet, payload = _apply(packet, payload, name, n, data)
            if packet is seen[-1][0]:
                seen[-1][1] = payload
            else:
                seen.append([packet, payload])
            for each, held in seen:
                _assert_holds(each, held, name)
                assert each.wire_len == len(each._serialise()), name
                assert each.wire_len == len(each.to_bytes()), name
                _assert_holds(each, held, name)  # now read out of the image

    @given(
        payload=st.binary(min_size=12, max_size=64),
        vlan=st.one_of(st.none(), st.integers(0, 4095).map(Vlan)),
        count=st.integers(1, 6),
        warm=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_batch_packet_has_the_train_wire_len(
        self, payload, vlan, count, warm
    ):
        template = make_packet(payload, vlan)
        if warm:
            template.to_bytes()
        heads = [payload[:12] if i == 0 else bytes([i]) * 12 for i in range(count)]
        batch = PacketBatch(UdpTemplate(template), heads, list(range(count)))
        for i in range(count):
            packet = batch.packet_at(i)
            _assert_holds(packet, heads[i] + payload[12:], f"packet_at({i})")
            assert packet.wire_len == batch.wire_len == len(packet.to_bytes())
            _assert_holds(packet, heads[i] + payload[12:], f"packet_at({i}) warm")

    def test_length_reads_never_validate_the_cache(self, monkeypatch):
        packet = make_packet()
        packet.to_bytes()
        monkeypatch.setattr(
            Packet, "_cache_valid", lambda self: pytest.fail("length read hit the cache")
        )
        assert packet.wire_len == 14 + 20 + 8 + len(b"hello-netco")
        packet.payload = b"xy"
        assert packet.wire_len == 14 + 20 + 8 + 2
