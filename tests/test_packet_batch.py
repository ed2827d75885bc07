"""Property tests for :class:`repro.net.stamp.PacketBatch`.

The batch tier's whole correctness story rests on one invariant: every
packet of a train, stamped from the flow's template (serialised once,
then patched per packet), is **bit-identical** to serialising it from
scratch.  These tests drive randomized trains — random sizes, payloads,
head lengths (odd and even, to exercise the word-alignment path),
idents, TTLs — and diff the images byte for byte, before and after
header rewrites of the packets a train materialises (TTL decrement,
Ethernet rewrite), and check that a rewrite of one packet reaches no
other.
"""

import random
import struct

import pytest

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.net.stamp import PacketBatch, UdpTemplate

SEEDS = list(range(24))


def _template(rng, payload):
    return Packet.udp(
        src_mac=MacAddress.from_index(rng.randrange(1, 200)),
        dst_mac=MacAddress.from_index(rng.randrange(1, 200)),
        src_ip=IpAddress.from_index(rng.randrange(1, 200)),
        dst_ip=IpAddress.from_index(rng.randrange(1, 200)),
        sport=rng.randrange(1024, 65535),
        dport=rng.randrange(1024, 65535),
        payload=payload,
        ttl=rng.randrange(2, 255),
        ident=rng.randrange(0, 0xFFFF),
    )


def _random_train(rng):
    """A randomized train plus the per-packet reference constructor."""
    payload_len = rng.randrange(12, 600)
    payload = bytes(rng.randrange(256) for _ in range(payload_len))
    count = rng.randrange(2, 40)
    head_len = rng.randrange(0, min(16, payload_len) + 1)  # odd lengths too
    heads = [
        bytes(rng.randrange(256) for _ in range(head_len)) for _ in range(count)
    ]
    idents = [rng.randrange(0, 0xFFFF) for _ in range(count)]
    template = _template(rng, payload)
    eth, _vlan, ip, udp = template.fields()
    batch = PacketBatch(UdpTemplate(template), heads, idents)
    # the references are built from the template's field values, read now
    src_mac, dst_mac = MacAddress(eth.src), MacAddress(eth.dst)
    src_ip, dst_ip = ip.src, ip.dst
    sport, dport, ttl = udp.sport, udp.dport, ip.ttl

    def reference(i):
        return Packet.udp(
            src_mac=src_mac,
            dst_mac=dst_mac,
            src_ip=src_ip,
            dst_ip=dst_ip,
            sport=sport,
            dport=dport,
            payload=heads[i] + payload[len(heads[i]):],
            ttl=ttl,
            ident=idents[i],
        )

    return batch, reference


def _slices(batch):
    buf = batch.wire_buffer()
    wl = batch.wire_len
    assert len(buf) == wl * batch.count
    return [bytes(buf[i * wl : (i + 1) * wl]) for i in range(batch.count)]


@pytest.mark.parametrize("seed", SEEDS)
def test_wire_buffer_matches_per_packet_serialisation(seed):
    rng = random.Random(seed)
    batch, reference = _random_train(rng)
    for i, image in enumerate(_slices(batch)):
        assert image == reference(i).to_bytes(), f"packet {i} differs"


@pytest.mark.parametrize("seed", SEEDS)
def test_packet_at_matches_buffer_and_reference(seed):
    rng = random.Random(seed)
    batch, reference = _random_train(rng)
    images = _slices(batch)
    for i in range(batch.count):
        pkt = batch.packet_at(i)
        assert pkt.to_bytes() == images[i]
        assert pkt.to_bytes() == reference(i).to_bytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_ttl_decrement_matches_per_packet(seed):
    rng = random.Random(seed)
    batch, reference = _random_train(rng)
    batch.wire_buffer()
    for i, pkt in enumerate(batch.packets()):  # each image is a buffer slice
        pkt.decrement_ttl()
        ref = reference(i)
        ref.decrement_ttl()
        assert pkt.wire_cache() is not None, f"packet {i} went cold"
        assert pkt.to_bytes() == ref.to_bytes(), f"packet {i} differs after TTL"


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_eth_rewrite_matches_per_packet(seed):
    rng = random.Random(seed)
    batch, reference = _random_train(rng)
    batch.wire_buffer()
    new_src = MacAddress.from_index(rng.randrange(200, 250))
    new_dst = MacAddress.from_index(rng.randrange(200, 250))
    for i, pkt in enumerate(batch.packets()):
        pkt.eth.src, pkt.eth.dst = new_src, new_dst
        ref = reference(i)
        ref.eth.src, ref.eth.dst = new_src, new_dst
        assert pkt.to_bytes() == ref.to_bytes(), f"packet {i} differs after rewrite"


@pytest.mark.parametrize("seed", SEEDS)
def test_a_rewrite_of_one_packet_reaches_no_other(seed):
    """Each packet is stamped from the flow's template, none from packet
    0: a header write to packet 0 before packet i is materialised leaves
    packet i's headers and image in agreement, and as sent."""
    rng = random.Random(seed)
    batch, reference = _random_train(rng)
    batch.wire_buffer()
    first = batch.packet_at(0)
    first.eth.dst = MacAddress.from_index(rng.randrange(200, 250))
    first.decrement_ttl()
    for i in range(1, batch.count):
        pkt = batch.packet_at(i)
        assert pkt.to_bytes() == pkt._serialise(), f"packet {i} contradicts its image"
        assert pkt.to_bytes() == reference(i).to_bytes(), f"packet {i} differs"
    assert first.to_bytes() == first._serialise()
    assert first.to_bytes() != reference(0).to_bytes()


def test_udp_train_shape_is_patchable(monkeypatch):
    """The fig5 CBR train shape (12-byte seq/ts heads) is stamped: its
    packets are made without a serialisation or a checksum pass."""
    import repro.net.packet as packet_module

    rng = random.Random(0)
    payload = bytes(rng.randrange(256) for _ in range(1400))
    flow = UdpTemplate(_template(rng, payload))
    heads = [struct.pack("!IQ", i, 1_000_000 + i) for i in range(32)]
    batch = PacketBatch(flow, heads, list(range(32)))

    def no_pass(*_args):
        pytest.fail("a train packet was serialised or checksummed")

    monkeypatch.setattr(packet_module.Packet, "_serialise", no_pass)
    monkeypatch.setattr(packet_module, "internet_checksum", no_pass)
    images = _slices(batch)
    for i in range(32):
        assert images[i][42:54] == heads[i]
