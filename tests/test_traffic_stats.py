"""Tests for measurement primitives (summary stats, jitter)."""

import pytest

from repro.traffic.stats import JitterEstimator, SummaryStats


class TestSummaryStats:
    def test_empty_is_all_zero(self):
        assert SummaryStats().mean == 0.0

    def test_mean(self):
        stats = SummaryStats()
        for v in (1.0, 2.0, 3.0):
            stats.add(v)
        assert stats.mean == 2.0
        assert stats.samples == [1.0, 2.0, 3.0]


class TestJitterEstimator:
    def test_constant_transit_time_zero_jitter(self):
        jitter = JitterEstimator()
        for i in range(20):
            jitter.observe(send_time=i * 0.01, recv_time=i * 0.01 + 0.005)
        assert jitter.jitter < 1e-12  # only float rounding noise

    def test_varying_transit_accumulates(self):
        jitter = JitterEstimator()
        jitter.observe(0.00, 0.005)
        jitter.observe(0.01, 0.016)  # transit +1ms
        assert jitter.jitter == pytest.approx(0.001 / 16)

    def test_converges_toward_mean_abs_delta(self):
        jitter = JitterEstimator()
        # transit alternates by 1 ms every packet
        for i in range(500):
            transit = 0.005 + (0.001 if i % 2 else 0.0)
            jitter.observe(i * 0.01, i * 0.01 + transit)
        assert 0.0005 < jitter.jitter < 0.0011

    def test_sample_count(self):
        jitter = JitterEstimator()
        jitter.observe(0.0, 0.1)
        jitter.observe(1.0, 1.1)
        jitter.observe(2.0, 2.1)
        assert jitter.samples == 2  # first observation only primes

