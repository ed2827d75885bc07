"""Tests for the sampling-detection extension (Section IX)."""

import pytest

from repro.adversary.dos import BlackholeBehavior
from repro.adversary.modify import PayloadCorruptionBehavior
from repro.core.alarms import ALARM_MINORITY_DIVERGENCE
from repro.core.combiner import CombinerChainParams, build_combiner_chain
from repro.core.sampling import SamplingEndpoint, deterministic_sample
from repro.net.topology import Network
from repro.traffic.iperf import PathEndpoints, run_ping, run_udp_flow


def build_rig(sample_rate=0.25, k=2, seed=13):
    net = Network(seed=seed)
    chain = build_combiner_chain(
        net, "sc", CombinerChainParams(k=k, sample_rate=sample_rate)
    )
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    net.connect(h1, chain.endpoint_a)
    net.connect(h2, chain.endpoint_b)
    chain.install_mac_route(h2.mac, toward="b")
    chain.install_mac_route(h1.mac, toward="a")
    return net, chain, h1, h2


class TestDeterministicSampling:
    def test_boundary_rates(self):
        assert deterministic_sample(b"anything", 1.0)
        assert not deterministic_sample(b"anything", 0.0)

    def test_same_key_same_decision(self):
        for key in (b"a", b"hello", b"\x00" * 40):
            assert deterministic_sample(key, 0.3) == deterministic_sample(key, 0.3)

    def test_rate_is_approximately_honoured(self):
        hits = sum(
            deterministic_sample(f"packet-{i}".encode(), 0.25) for i in range(4000)
        )
        assert 800 < hits < 1200

    def test_monotone_in_rate(self):
        # a packet sampled at rate r is sampled at every rate > r
        for i in range(200):
            key = f"k{i}".encode()
            if deterministic_sample(key, 0.1):
                assert deterministic_sample(key, 0.5)

    def test_invalid_rate_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            SamplingEndpoint(net.sim, "x", sample_rate=1.5)


class TestBenignOperation:
    def test_traffic_flows_without_duplicates(self):
        net, chain, h1, h2 = build_rig()
        result = run_ping(PathEndpoints(net, h1, h2), count=10, interval=1e-3)
        assert result.received == 10
        assert result.duplicates == 0

    def test_compare_load_is_sampled_fraction(self):
        net, chain, h1, h2 = build_rig(sample_rate=0.2)
        flow = run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=20e6, duration=0.05)
        total = flow.received_unique
        sampled = chain.compare_core.stats.submissions / 2  # k = 2 copies
        assert total > 50
        assert sampled < total * 0.45  # well below full-combiner load
        assert sampled > total * 0.05

    def test_zero_rate_never_uses_compare(self):
        net, chain, h1, h2 = build_rig(sample_rate=0.0)
        run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=10e6, duration=0.02)
        assert chain.compare_core.stats.submissions == 0

    def test_benign_run_raises_no_divergence(self):
        net, chain, h1, h2 = build_rig(sample_rate=0.5)
        run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=10e6, duration=0.02)
        chain.compare_core.flush()
        assert chain.alarms.count(ALARM_MINORITY_DIVERGENCE) == 0

    def test_latency_unaffected_by_compare(self):
        # primary-branch forwarding never waits for the vote
        net, chain, h1, h2 = build_rig(sample_rate=1.0)
        sampled_rtt = run_ping(PathEndpoints(net, h1, h2), count=5).rtts.mean
        net2, chain2, h12, h22 = build_rig(sample_rate=0.0, seed=14)
        plain_rtt = run_ping(PathEndpoints(net2, h12, h22), count=5).rtts.mean
        assert sampled_rtt == pytest.approx(plain_rtt, rel=0.2)


class TestBatchTier:
    def test_a_train_through_sampled2_equals_the_per_packet_run(self):
        # a branch arrival leaves its train: forward-or-sample is per packet
        from repro.scenarios.testbed import TestbedParams, build_testbed

        def run(train):
            testbed = build_testbed(
                "sampled2", params=TestbedParams(batch_train=train), seed=3)
            flow = run_udp_flow(testbed.path(), rate_bps=100e6, duration=0.02)
            egress = testbed.chain.endpoint_b
            return (flow.sent, flow.received_unique, flow.jitter_ms,
                    egress.sampled, egress.fast_forwarded,
                    testbed.compare_core.stats.as_dict())

        per_packet = run(1)
        assert per_packet[1] == per_packet[0] > 0
        assert run(32) == per_packet


class TestDetection:
    def test_divergent_secondary_detected(self):
        net, chain, h1, h2 = build_rig(sample_rate=0.5)
        PayloadCorruptionBehavior().attach(chain.router(1))  # non-primary
        result = run_udp_flow(
            PathEndpoints(net, h1, h2), rate_bps=20e6, duration=0.05
        )
        assert result.loss_rate == 0.0  # primary path unaffected
        chain.compare_core.flush()
        assert chain.alarms.count(ALARM_MINORITY_DIVERGENCE) > 0

    def test_tampering_primary_is_detected_but_not_prevented(self):
        # the sampling trade-off, stated explicitly
        net, chain, h1, h2 = build_rig(sample_rate=0.5)
        PayloadCorruptionBehavior(flip_offset=20).attach(chain.router(0))
        corrupted = []
        h2.bind_raw(
            lambda p: corrupted.append(p)
            if len(p.payload) > 20 and p.payload[20] != 0 else None
        )
        run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=20e6, duration=0.05)
        chain.compare_core.flush()
        assert corrupted, "tampered packets do reach the host (no prevention)"
        assert chain.alarms.count(ALARM_MINORITY_DIVERGENCE) > 0, "but it is detected"

    def test_detection_probability_scales_with_rate(self):
        def divergences(rate):
            net, chain, h1, h2 = build_rig(sample_rate=rate, seed=15)
            PayloadCorruptionBehavior().attach(chain.router(1))
            run_udp_flow(PathEndpoints(net, h1, h2), rate_bps=20e6, duration=0.05)
            chain.compare_core.flush()
            return chain.alarms.count(ALARM_MINORITY_DIVERGENCE)

        low, high = divergences(0.1), divergences(0.8)
        assert high > low > 0

    def test_blackholed_secondary_detected(self):
        net, chain, h1, h2 = build_rig(sample_rate=1.0)
        BlackholeBehavior().attach(chain.router(1))
        result = run_ping(PathEndpoints(net, h1, h2), count=10, interval=1e-3)
        assert result.received == 10  # primary carries the traffic
        chain.compare_core.flush()
        assert chain.alarms.count(ALARM_MINORITY_DIVERGENCE) > 0
