"""Soak tests: conservation invariants under sustained mixed load.

Every copy submitted to the compare must be accounted for exactly once:
dropped at the service queue, or recorded in an entry that is finalised
(expired/evicted/flushed).  Silence about a packet is a bug; these tests
run heavy mixed workloads — overload, adversaries, duplication — and
check the books balance.
"""

import pytest

from repro.adversary.dos import ReplayFloodBehavior
from repro.adversary.modify import PayloadCorruptionBehavior
from repro.core.combiner import CombinerChainParams, build_combiner_chain
from repro.core.compare import CompareConfig
from repro.net.topology import Network
from repro.traffic.ping import Pinger
from repro.traffic.tcp import TcpReceiver, TcpSender
from repro.traffic.udp import UdpReceiver, UdpSender
from repro.traffic.iperf import PathEndpoints, run_udp_flow


def build_rig(k=3, seed=101, **compare_kwargs):
    net = Network(seed=seed)
    compare_kwargs.setdefault("buffer_timeout", 2e-3)
    params = CombinerChainParams(
        k=k, compare=CompareConfig(k=k, **compare_kwargs)
    )
    chain = build_combiner_chain(net, "nc", params)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    net.connect(h1, chain.endpoint_a)
    net.connect(h2, chain.endpoint_b)
    chain.install_mac_route(h2.mac, toward="b")
    chain.install_mac_route(h1.mac, toward="a")
    return net, chain, h1, h2


def assert_conservation(core) -> None:
    core.flush()
    stats = core.stats
    assert stats.submissions == stats.queue_drops + stats.copies_finalised, (
        f"copies leaked: {stats.as_dict()}"
    )


class TestConservation:
    def test_benign_mixed_load(self):
        net, chain, h1, h2 = build_rig()
        udp_rx = UdpReceiver(h2, 5001)
        udp_tx = UdpSender(h1, h2.mac, h2.ip, 5001, rate_bps=30e6)
        tcp_rx = TcpReceiver(h2, 5002)
        tcp_tx = TcpSender(h1, h2.mac, h2.ip, 5002, min_rto=0.005)
        pinger = Pinger(h1, h2.mac, h2.ip)
        udp_tx.start(duration=0.05)
        tcp_tx.start(duration=0.05)
        pinger.run(count=40, interval=1e-3)
        net.run(until=0.12)
        assert_conservation(chain.compare_core)
        assert chain.compare_core.stats.submissions > 1000

    def test_under_compare_overload(self):
        # tiny service queue forces queue drops; accounting must balance
        net, chain, h1, h2 = build_rig(
            seed=102, proc_time=30e-6, service_queue_capacity=8
        )
        run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=200e6, duration=0.05)
        stats = chain.compare_core.stats
        assert stats.queue_drops > 0
        assert_conservation(chain.compare_core)

    def test_with_corrupting_adversary(self):
        net, chain, h1, h2 = build_rig(seed=103)
        PayloadCorruptionBehavior().attach(chain.router(0))
        run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=40e6, duration=0.05)
        assert_conservation(chain.compare_core)

    def test_with_replay_flood(self):
        net, chain, h1, h2 = build_rig(seed=104, dup_threshold=6)
        ReplayFloodBehavior(amplification=8).attach(chain.router(2))
        run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=20e6, duration=0.05)
        stats = chain.compare_core.stats
        assert stats.branch_duplicates > 0
        assert_conservation(chain.compare_core)

    def test_with_cache_pressure_evictions(self):
        net, chain, h1, h2 = build_rig(
            seed=105, cache_capacity=16, buffer_timeout=0.5
        )
        run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=40e6, duration=0.05)
        stats = chain.compare_core.stats
        assert stats.cleanups > 0
        assert_conservation(chain.compare_core)

    def test_k5_long_run(self):
        net, chain, h1, h2 = build_rig(k=5, seed=106)
        result = run_udp_flow(
            PathEndpoints(net, h1, h2), rate_bps=60e6, duration=0.1
        )
        assert result.received_unique > 400
        assert_conservation(chain.compare_core)
        # exactly k copies per delivered packet reached the compare
        stats = chain.compare_core.stats
        assert stats.released == result.received_unique
