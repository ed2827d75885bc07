"""Tests for the ping harness and the iperf orchestration layer."""

import pytest

import repro.traffic.iperf as iperf
from repro.net.topology import Network
from repro.scenarios.testbed import TestbedParams, build_testbed
from repro.traffic.ping import Pinger
from repro.traffic.iperf import (
    PathEndpoints,
    find_max_udp_rate,
    run_ping,
    run_tcp_flow,
    run_udp_flow,
)


def direct_pair(delay=100e-6, loss=0.0):
    net = Network(seed=8)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    net.connect(h1, h2, rate_bps=1e9, delay=delay, loss=loss,
                queue_capacity=5000)
    return net, h1, h2


class TestPinger:
    def test_all_replies_received(self):
        net, h1, h2 = direct_pair()
        pinger = Pinger(h1, h2.mac, h2.ip)
        pinger.run(count=10, interval=1e-3)
        net.run(until=0.1)
        result = pinger.result()
        assert result.sent == 10 and result.received == 10
        assert result.loss_rate == 0.0
        assert result.duplicates == 0

    def test_rtt_matches_path_delay(self):
        net, h1, h2 = direct_pair(delay=1e-3)
        pinger = Pinger(h1, h2.mac, h2.ip)
        pinger.run(count=5, interval=5e-3)
        net.run(until=0.1)
        result = pinger.result()
        assert result.avg_rtt_ms == pytest.approx(2.0, rel=0.05)
        assert len(result.rtts.samples) == 5  # one RTT per reply

    def test_loss_reported(self):
        net, h1, h2 = direct_pair(loss=0.3)
        pinger = Pinger(h1, h2.mac, h2.ip)
        pinger.run(count=50, interval=1e-3)
        net.run(until=0.2)
        result = pinger.result()
        assert result.received < 50
        assert result.loss_rate > 0.0

    def test_done_callback_fires(self):
        net, h1, h2 = direct_pair()
        done = []
        pinger = Pinger(h1, h2.mac, h2.ip)
        pinger.run(count=3, interval=1e-3, done_cb=lambda: done.append(net.sim.now))
        net.run(until=0.1)
        assert len(done) == 1

    def test_two_pingers_do_not_interfere(self):
        net, h1, h2 = direct_pair()
        h3 = net.add_host("h3")
        # h3 unwired; just check ident uniqueness between pingers on h1
        p1 = Pinger(h1, h2.mac, h2.ip)
        assert Pinger(h1, h2.mac, h2.ip).ident != p1.ident

    def test_host_still_answers_requests_while_pinging(self):
        net, h1, h2 = direct_pair()
        pinger = Pinger(h1, h2.mac, h2.ip)
        pinger.run(count=2, interval=1e-3)
        reverse = Pinger(h2, h1.mac, h1.ip)
        reverse.run(count=2, interval=1e-3)
        net.run(until=0.1)
        assert pinger.result().received == 2
        assert reverse.result().received == 2


class TestIperfRunners:
    def test_run_udp_flow(self):
        net, h1, h2 = direct_pair()
        result = run_udp_flow(
            PathEndpoints(net, h1, h2), rate_bps=20e6, duration=0.02
        )
        assert result.loss_rate == 0.0
        assert result.throughput_mbps == pytest.approx(20.0, rel=0.1)

    def test_run_tcp_flow(self):
        net, h1, h2 = direct_pair()
        result = run_tcp_flow(PathEndpoints(net, h1, h2), duration=0.05)
        assert result.throughput_mbps > 100

    def test_run_ping(self):
        net, h1, h2 = direct_pair()
        result = run_ping(PathEndpoints(net, h1, h2), count=10)
        assert result.received == 10

    def test_reversed_path(self):
        net, h1, h2 = direct_pair()
        path = PathEndpoints(net, h1, h2).reversed()
        assert path.client is h2 and path.server is h1
        result = run_ping(path, count=3)
        assert result.received == 3

    def test_find_max_udp_rate_converges_to_capacity(self):
        # testbed linespeed: capacity is the 42 us/datagram sender cost
        def factory():
            return build_testbed("linespeed", seed=1).path()

        rate, result = find_max_udp_rate(
            factory, duration=0.04, iterations=7, send_cost=42e-6
        )
        assert result.loss_rate <= 0.005
        assert result.throughput_mbps == pytest.approx(280, rel=0.05)

    def test_find_max_respects_loss_target(self):
        def factory():
            return build_testbed("central5", seed=1).path()

        _rate, result = find_max_udp_rate(
            factory, duration=0.04, iterations=6, send_cost=42e-6
        )
        assert result.loss_rate <= 0.005


def _search_every_probe(path_factory, loss_target=0.005, rate_lo=10e6,
                        rate_hi=1e9, iterations=9, duration=0.15,
                        payload_size=1470, send_cost=0.0):
    """The max-rate search as it ran before probes were shared: one flow
    per probe, on a fresh testbed each."""
    best_rate, best_result = rate_lo, None
    lo, hi = rate_lo, rate_hi
    for _ in range(iterations):
        probe = (lo + hi) / 2.0
        result = run_udp_flow(path_factory(), rate_bps=probe, duration=duration,
                              payload_size=payload_size, send_cost=send_cost)
        if result.loss_rate <= loss_target:
            best_rate, best_result = probe, result
            lo = probe
        else:
            hi = probe
    if best_result is None:
        best_result = run_udp_flow(path_factory(), rate_bps=rate_lo,
                                   duration=duration, payload_size=payload_size,
                                   send_cost=send_cost)
    return best_rate, best_result


#: the UDP stage of ``table1 --quick``
QUICK_SEARCH = dict(duration=0.04, iterations=8,
                    send_cost=TestbedParams().udp_send_cost)


class TestMaxRateSearchSharesProbes:
    def test_probes_past_the_send_cost_cap_run_once(self, monkeypatch):
        runs = []

        def counted(*args, **kwargs):
            runs.append(kwargs["rate_bps"])
            return run_udp_flow(*args, **kwargs)

        monkeypatch.setattr(iperf, "run_udp_flow", counted)
        # every linespeed probe offers more than the 42 us sender cap
        find_max_udp_rate(lambda: build_testbed("linespeed", seed=1).path(),
                          **QUICK_SEARCH)
        assert len(runs) == 1

    @pytest.mark.parametrize("variant", ["linespeed", "central3"])
    def test_result_equals_one_flow_per_probe(self, variant):
        def factory():
            return build_testbed(variant, seed=1).path()

        assert find_max_udp_rate(factory, **QUICK_SEARCH) == _search_every_probe(
            factory, **QUICK_SEARCH
        )
