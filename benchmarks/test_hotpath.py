"""Micro/macro benchmarks for the per-packet hot loop.

Times the five paths the hot-loop optimisation targets — serialisation,
compare vote-keying, k-way fan-out, flow-table lookup and event churn —
and writes machine-readable results to ``BENCH_hotpath.json`` (override
the location with ``BENCH_HOTPATH_OUT``).

Every sample is also *normalised* by a small pure-Python calibration loop
timed on the same machine, so the checked-in baseline
(``hotpath_baseline.json``) can gate regressions across hosts of very
different speeds: see ``check_hotpath_regression.py``.

The two ``test_speedup_*`` tests assert the headline acceptance
criterion of the optimisation PR directly: serialising / vote-keying a
packet whose wire image is cached must be at least 2x faster than the
cold path (in practice it is orders of magnitude faster).

Run with::

    pytest benchmarks/test_hotpath.py -q
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict

import pytest

from repro.core.policy import BitExactPolicy, HeaderOnlyPolicy
from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet, internet_checksum
from repro.openflow.actions import Output
from repro.openflow.flowtable import FlowEntry, FlowTable, _rank
from repro.openflow.match import Match
from repro.sim.engine import Simulator

#: name -> {"us": per-call microseconds, "normalised": us / calibration_us}
RESULTS: Dict[str, Dict[str, float]] = {}
_CALIBRATION_US = None

PAYLOAD = bytes(range(256)) * 5 + bytes(120)  # 1400 B, fig5-sized


def _packet(seq: int = 0) -> Packet:
    return Packet.udp(
        src_mac=MacAddress.from_index(1),
        dst_mac=MacAddress.from_index(2),
        src_ip=IpAddress.from_index(1),
        dst_ip=IpAddress.from_index(2),
        sport=5001,
        dport=5002,
        payload=PAYLOAD,
        ident=seq,
    )


def _time_per_call(fn: Callable[[], None], min_time: float = 0.02,
                   repeats: int = 3) -> float:
    """Best-of-``repeats`` per-call time in microseconds."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time or number >= 1_000_000:
            break
        number *= 2
    best = elapsed / number
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed / number)
    return best * 1e6


def _calibration_us() -> float:
    """Per-call cost of a fixed pure-Python loop (machine speed proxy)."""
    global _CALIBRATION_US
    if _CALIBRATION_US is None:
        def spin(n=1000, _range=range):
            acc = 0
            for i in _range(n):
                acc += i
            return acc

        _CALIBRATION_US = _time_per_call(spin)
    return _CALIBRATION_US


def _record(name: str, us: float) -> float:
    RESULTS[name] = {
        "us": round(us, 4),
        "normalised": round(us / _calibration_us(), 6),
    }
    return us


@pytest.fixture(scope="module", autouse=True)
def _dump_results():
    yield
    payload = {
        "schema": "hotpath-bench-v1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_us": round(_calibration_us(), 4),
        "results": RESULTS,
    }
    override = os.environ.get("BENCH_HOTPATH_OUT")
    if override:
        outputs = [override]
    else:
        # Write the snapshot both next to this file and at the repo root,
        # so the perf trajectory is visible regardless of the pytest cwd.
        here = os.path.dirname(os.path.abspath(__file__))
        outputs = [
            os.path.join(here, "BENCH_hotpath.json"),
            os.path.join(os.path.dirname(here), "BENCH_hotpath.json"),
        ]
    for out in outputs:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ----------------------------------------------------------------------
# serialisation + vote keys
# ----------------------------------------------------------------------
def test_serialise_cold_vs_cached():
    packet = _packet()
    cold = _record("serialise_cold", _time_per_call(packet._serialise))
    packet.to_bytes()  # warm
    cached = _record("serialise_cached", _time_per_call(packet.to_bytes))
    assert packet.to_bytes() == packet._serialise()
    RESULTS["serialise_speedup"] = {"us": 0.0, "normalised": 0.0,
                                    "ratio": round(cold / cached, 1)}


def test_speedup_serialise_at_least_2x():
    packet = _packet()
    cold = _time_per_call(packet._serialise)
    packet.to_bytes()
    cached = _time_per_call(packet.to_bytes)
    assert cold >= 2.0 * cached, (
        f"cached serialise not >=2x faster: cold={cold:.2f}us cached={cached:.2f}us"
    )


def test_votekey_cold_vs_cached():
    policy = BitExactPolicy()
    packet = _packet()

    def cold_key():
        packet._wire = None  # force a full re-serialisation
        policy.key(packet)

    cold = _record("votekey_cold", _time_per_call(cold_key))
    packet.to_bytes()
    cached = _record("votekey_cached", _time_per_call(lambda: policy.key(packet)))
    RESULTS["votekey_speedup"] = {"us": 0.0, "normalised": 0.0,
                                  "ratio": round(cold / cached, 1)}


def test_speedup_votekey_at_least_2x():
    policy = BitExactPolicy()
    packet = _packet()

    def cold_key():
        packet._wire = None
        policy.key(packet)

    cold = _time_per_call(cold_key)
    packet.to_bytes()
    cached = _time_per_call(lambda: policy.key(packet))
    assert cold >= 2.0 * cached, (
        f"cached vote key not >=2x faster: cold={cold:.2f}us cached={cached:.2f}us"
    )


def test_headeronly_key_cached():
    policy = HeaderOnlyPolicy()
    packet = _packet()
    packet.to_bytes()
    _record("headeronly_key_cached", _time_per_call(lambda: policy.key(packet)))


def test_checksum_1400B():
    _record("checksum_1400B", _time_per_call(lambda: internet_checksum(PAYLOAD)))


# ----------------------------------------------------------------------
# fan-out (hub + compare ingress path)
# ----------------------------------------------------------------------
def test_fanout_copy_and_key():
    """The Central-5 per-packet pattern: 5 CoW copies, each vote-keyed."""
    policy = BitExactPolicy()
    packet = _packet()
    packet.to_bytes()  # endpoint warms the cache before fanning out

    def fanout():
        for _ in range(5):
            policy.key(packet.copy())

    _record("fanout5_copy_and_key", _time_per_call(fanout))


def test_copy():
    packet = _packet()
    packet.to_bytes()
    _record("copy_warm", _time_per_call(packet.copy))


# ----------------------------------------------------------------------
# packet trains (batch tier)
# ----------------------------------------------------------------------
_TRAIN = 32


def _batch(train: int = _TRAIN):
    """A fig5-shaped train: 12-byte seq/ts heads like ``traffic/udp.py``."""
    import struct

    from repro.net.packet import PacketBatch

    template = _packet()
    heads = [struct.pack("!IQ", i, 1_000_000 + i) for i in range(train)]
    idents = list(range(train))
    return PacketBatch(template, heads, idents,
                       seqs=list(range(train)),
                       ts_ns=[1_000_000 + i for i in range(train)])


def test_batch_serialise_vs_per_packet():
    """Building one train's contiguous wire buffer vs 32 cold serialises."""
    def per_packet():
        for i in range(_TRAIN):
            _packet(seq=i)._serialise()

    cold = _record("serialise_train32_per_packet", _time_per_call(per_packet))

    def batched():
        batch = _batch()
        batch.wire_buffer()

    us = _record("serialise_train32_batched", _time_per_call(batched))
    RESULTS["batch_serialise_speedup"] = {"us": 0.0, "normalised": 0.0,
                                          "ratio": round(cold / us, 1)}
    assert cold >= 2.0 * us, (
        f"batched train serialise not >=2x faster: "
        f"per-packet={cold:.1f}us batched={us:.1f}us"
    )


def test_batch_ttl_sweep_vs_per_packet():
    """One batch TTL sweep vs decrementing 32 materialised packets."""
    packets = [_packet(seq=i) for i in range(_TRAIN)]
    for pkt in packets:
        pkt.to_bytes()

    # each timed call decrements then restores, so repeated timing loops
    # never drive the TTL out of range
    def per_packet():
        for pkt in packets:
            pkt.decrement_ttl()
        for pkt in packets:
            pkt.decrement_ttl(-1)

    cold = _record("ttl_train32_per_packet", _time_per_call(per_packet))

    batch = _batch()
    batch.wire_buffer()

    def batched():
        batch.decrement_ttl()
        batch.decrement_ttl(-1)

    us = _record("ttl_train32_batched", _time_per_call(batched))
    RESULTS["batch_ttl_speedup"] = {"us": 0.0, "normalised": 0.0,
                                    "ratio": round(cold / us, 1)}


def test_hub_batch_fanout_vs_per_packet():
    """A 5-branch hub fanning one train: shared batch vs per-packet copies."""
    from repro.core.hub import Hub
    from repro.net.topology import Network

    def build(train):
        net = Network(seed=1, batch_train=train)
        hub = Hub(net.sim, "hub")
        net.add_node(hub)
        feeder = net.add_host("src")
        for b in range(5):
            sink = net.add_host(f"sink{b}", promiscuous=True)
            net.connect(hub, sink, queue_capacity=10_000_000)
        net.connect(feeder, hub, port_b=1, queue_capacity=10_000_000)
        return net, hub

    net1, hub1 = build(1)
    packets = [_packet(seq=i) for i in range(_TRAIN)]
    in_port = hub1.port(1)

    def per_packet():
        for pkt in packets:
            hub1.receive(pkt, in_port)

    cold = _record("hub_fanout_train32_per_packet", _time_per_call(per_packet))

    net32, hub32 = build(32)
    batch = _batch()
    in_port32 = hub32.port(1)

    def batched():
        for i in range(_TRAIN):
            hub32.receive_batch_packet(batch, i, in_port32)

    us = _record("hub_fanout_train32_batched", _time_per_call(batched))
    RESULTS["hub_fanout_speedup"] = {"us": 0.0, "normalised": 0.0,
                                     "ratio": round(cold / us, 2)}
    # Both paths are dominated by per-delivery link scheduling (which the
    # shared-CPU ordering invariant keeps per-packet; see DESIGN.md), so
    # the batch win here is only the avoided per-branch copies.  Gate
    # against regression, not for a speedup.
    assert us <= cold * 1.5, (
        f"hub batch fan-out regressed vs per-packet: "
        f"per-packet={cold:.1f}us batched={us:.1f}us"
    )


# ----------------------------------------------------------------------
# flow-table lookup
# ----------------------------------------------------------------------
def _reference_scan(entries, packet, in_port, now):
    """The pre-index linear scan, kept as the comparison baseline."""
    for entry in sorted(entries, key=_rank):
        if entry.expired(now):
            continue
        if entry.match.matches(packet, in_port):
            return entry
    return None


def _indexed_table(n: int = 64):
    table = FlowTable()
    packets = [_packet(seq=i) for i in range(n)]
    for i, pkt in enumerate(packets):
        # Give every flow its own addresses so the table is n distinct
        # exact entries, like a reactive learning controller builds.
        pkt.eth.src = MacAddress.from_index(100 + i)
        pkt.ip.src = IpAddress.from_index(100 + i)
        table.add(FlowEntry(Match.from_packet(pkt, in_port=1), [Output(2)]))
    return table, packets


def test_lookup_indexed_vs_scan():
    table, packets = _indexed_table()
    hits = {"n": 0}

    def indexed():
        hits["n"] += 1
        table.lookup(packets[hits["n"] % len(packets)], 1, now=0.0)

    indexed_us = _record("lookup_indexed_64", _time_per_call(indexed))

    entries = table.entries

    def scanned():
        hits["n"] += 1
        _reference_scan(entries, packets[hits["n"] % len(packets)], 1, 0.0)

    scan_us = _record("lookup_scan_64", _time_per_call(scanned))
    RESULTS["lookup_speedup"] = {"us": 0.0, "normalised": 0.0,
                                 "ratio": round(scan_us / indexed_us, 1)}


# ----------------------------------------------------------------------
# event core
# ----------------------------------------------------------------------
def test_event_churn():
    """Schedule/cancel/run churn typical of retransmission timers."""

    def churn():
        sim = Simulator()
        handles = [sim.schedule(1e-3 * i, lambda: None) for i in range(200)]
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_events() == 100
        sim.run()

    _record("event_churn_200", _time_per_call(churn, min_time=0.05))


def test_pending_events_o1():
    sim = Simulator()
    for i in range(5000):
        sim.schedule(1e-3 * i, lambda: None)
    _record("pending_events_5k", _time_per_call(sim.pending_events))


# ----------------------------------------------------------------------
# macro: the fig5 UDP sweep (quick shape), wall-clock
# ----------------------------------------------------------------------
_FIG5_RECORD = None


def test_macro_fig5_quick():
    global _FIG5_RECORD
    from repro.plan.builtin import builtin_plan

    plan = builtin_plan("fig5", quick=True)
    t0 = time.perf_counter()
    record = plan.run()
    elapsed = time.perf_counter() - t0
    assert record.rows, "fig5 produced no rows"
    _FIG5_RECORD = record
    RESULTS["macro_fig5_quick"] = {
        "us": round(elapsed * 1e6, 1),
        "normalised": round(elapsed * 1e6 / _calibration_us(), 2),
        "seconds": round(elapsed, 2),
    }


def test_macro_fig5_quick_train32():
    """The same fig5 sweep through the batch tier: faster, bit-identical.

    The speedup floor here is deliberately modest (the CI batch-smoke job
    gates the real floor): the shared-CPU admission ordering documented in
    DESIGN.md caps the batch tier near 2x on this macro, and benchmark
    hosts are noisy.  Record identity, by contrast, is exact and gated
    hard.
    """
    from repro.plan.builtin import builtin_plan

    assert _FIG5_RECORD is not None, "train=1 macro must run first"
    plan = builtin_plan("fig5", quick=True, params={"batch_train": 32})
    t0 = time.perf_counter()
    record = plan.run()
    elapsed = time.perf_counter() - t0
    base = RESULTS["macro_fig5_quick"]["seconds"]
    speedup = base / elapsed if elapsed > 0 else float("inf")
    RESULTS["macro_fig5_quick_train32"] = {
        "us": round(elapsed * 1e6, 1),
        "normalised": round(elapsed * 1e6 / _calibration_us(), 2),
        "seconds": round(elapsed, 2),
        "speedup_vs_train1": round(speedup, 2),
    }
    assert record.rows == _FIG5_RECORD.rows, (
        "train=32 fig5 records differ from train=1"
    )
    assert speedup >= 1.2, (
        f"batch tier macro speedup collapsed: {speedup:.2f}x"
    )
