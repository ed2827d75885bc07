"""Tests for compare policies (bit-exact / header / hash)."""

import pytest

from repro.core.policy import BitExactPolicy
from repro.core.policy_ablation import (
    HashPolicy,
    HeaderOnlyPolicy,
)
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet

M1, M2, M3 = (MacAddress.from_index(i) for i in (1, 2, 3))
IP1, IP2 = IpAddress.from_index(1), IpAddress.from_index(2)


def pkt(payload=b"data", src=M1):
    return Packet.udp(src, M2, IP1, IP2, 1, 2, payload=payload)


class TestBitExact:
    def test_identical_packets_same_key(self):
        policy = BitExactPolicy()
        assert policy.key(pkt()) == policy.key(pkt())

    def test_payload_change_differs(self):
        policy = BitExactPolicy()
        assert policy.key(pkt(b"aaaa")) != policy.key(pkt(b"aaab"))

    def test_header_change_differs(self):
        policy = BitExactPolicy()
        assert policy.key(pkt(src=M1)) != policy.key(pkt(src=M3))


class TestHeaderOnly:
    def test_payload_change_ignored(self):
        policy = HeaderOnlyPolicy()
        assert policy.key(pkt(b"aaaa")) == policy.key(pkt(b"bbbb"))

    def test_header_change_detected(self):
        policy = HeaderOnlyPolicy()
        a = pkt()
        b = pkt()
        b.eth.dst = M3
        assert policy.key(a) != policy.key(b)

    def test_empty_payload(self):
        policy = HeaderOnlyPolicy()
        assert policy.key(pkt(b"")) == policy.key(pkt(b""))

    def test_payload_length_still_visible(self):
        # the IP total_length field lives in the header part, so *length*
        # changes are detected even though content changes are not.
        policy = HeaderOnlyPolicy()
        assert policy.key(pkt(b"aa")) != policy.key(pkt(b"aaa"))


class TestHash:
    def test_same_packet_same_digest(self):
        policy = HashPolicy()
        assert policy.key(pkt()) == policy.key(pkt())

    def test_digest_is_fixed_size(self):
        policy = HashPolicy()
        assert len(policy.key(pkt(b"x" * 1400))) == 32

    def test_detects_any_bit_change(self):
        policy = HashPolicy()
        assert policy.key(pkt(b"aaaa")) != policy.key(pkt(b"aaab"))

    def test_other_algorithms(self):
        policy = HashPolicy("md5")
        assert len(policy.key(pkt())) == 16

    def test_unknown_algorithm_fails_fast(self):
        with pytest.raises(ValueError):
            HashPolicy("not-a-hash")
