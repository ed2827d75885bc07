"""Tests for the operator health monitor."""

import pytest

from repro.analysis.monitor import HealthMonitor
from repro.core.alarms import (
    ALARM_DOS_SUSPECTED,
    ALARM_SINGLE_SOURCE_PACKET,
    AlarmSink,
)
from repro.net import Network


class TestHealthMonitor:
    def test_no_alarms_is_healthy(self):
        monitor = HealthMonitor()
        monitor.watch(AlarmSink())
        assert monitor.refresh() == 0
        assert monitor.suspects() == []
        assert "healthy" in monitor.summary()

    def test_branch_attribution_and_severity(self):
        sink = AlarmSink()
        monitor = HealthMonitor()
        monitor.watch(sink)
        sink.raise_alarm(1.0, ALARM_SINGLE_SOURCE_PACKET, "cmp", branch=2)
        sink.raise_alarm(1.5, ALARM_DOS_SUSPECTED, "cmp", branch=0)
        assert monitor.refresh() == 2
        assert monitor.suspects() == [0, 2]  # critical first
        assert monitor.branch(0).worst_severity == "critical"
        assert monitor.branch(2).worst_severity == "warning"
        assert monitor.branch(1).worst_severity == "healthy"

    def test_incremental_refresh(self):
        sink = AlarmSink()
        monitor = HealthMonitor()
        monitor.watch(sink)
        sink.raise_alarm(1.0, ALARM_SINGLE_SOURCE_PACKET, "cmp", branch=1)
        assert monitor.refresh() == 1
        assert monitor.refresh() == 0
        sink.raise_alarm(2.0, ALARM_SINGLE_SOURCE_PACKET, "cmp", branch=1)
        assert monitor.refresh() == 1
        assert monitor.branch(1).alarms == 2

    def test_detection_latency(self):
        sink = AlarmSink()
        monitor = HealthMonitor()
        monitor.watch(sink)
        sink.raise_alarm(0.5, ALARM_SINGLE_SOURCE_PACKET, "cmp", branch=0)
        sink.raise_alarm(2.0, ALARM_SINGLE_SOURCE_PACKET, "cmp", branch=1)
        monitor.refresh()
        # compromise began at t=1.0: the t=0.5 alarm predates it
        assert monitor.detection_latency(1.0) == pytest.approx(1.0)
        assert monitor.detection_latency(5.0) is None

    def test_multiple_sinks(self):
        a, b = AlarmSink(), AlarmSink()
        monitor = HealthMonitor()
        monitor.watch(a)
        monitor.watch(b)
        a.raise_alarm(1.0, ALARM_SINGLE_SOURCE_PACKET, "x", branch=0)
        b.raise_alarm(1.0, ALARM_DOS_SUSPECTED, "y", branch=0)
        assert monitor.refresh() == 2
        assert monitor.branch(0).alarms == 2

    def test_summary_lists_kinds(self):
        sink = AlarmSink()
        monitor = HealthMonitor()
        monitor.watch(sink)
        for _ in range(3):
            sink.raise_alarm(1.0, ALARM_SINGLE_SOURCE_PACKET, "cmp", branch=2)
        monitor.refresh()
        text = monitor.summary()
        assert "branch 2" in text and "x3" in text

    def test_unknown_alarm_kind_rolls_up_as_warning(self):
        # Kinds outside SEVERITIES must not crash the rollup; any alarm
        # makes a branch at least a warning, but never critical.
        sink = AlarmSink()
        monitor = HealthMonitor()
        monitor.watch(sink)
        sink.raise_alarm(1.0, "future_alarm_kind", "cmp", branch=3)
        monitor.refresh()
        assert monitor.branch(3).worst_severity == "warning"
        assert monitor.suspects() == [3]
        assert "branch 3: WARNING" in monitor.summary()

    def test_unknown_kind_does_not_mask_critical(self):
        sink = AlarmSink()
        monitor = HealthMonitor()
        monitor.watch(sink)
        sink.raise_alarm(1.0, "future_alarm_kind", "cmp", branch=0)
        sink.raise_alarm(2.0, ALARM_DOS_SUSPECTED, "cmp", branch=0)
        monitor.refresh()
        assert monitor.branch(0).worst_severity == "critical"

    def test_suspects_break_severity_ties_by_alarm_count(self):
        sink = AlarmSink()
        monitor = HealthMonitor()
        monitor.watch(sink)
        sink.raise_alarm(1.0, ALARM_SINGLE_SOURCE_PACKET, "cmp", branch=0)
        for _ in range(3):
            sink.raise_alarm(1.0, ALARM_SINGLE_SOURCE_PACKET, "cmp", branch=1)
        monitor.refresh()
        assert monitor.suspects() == [1, 0]

    def test_unattributed_alarms_tracked_in_summary_and_latency(self):
        sink = AlarmSink()
        monitor = HealthMonitor()
        monitor.watch(sink)
        sink.raise_alarm(2.0, ALARM_DOS_SUSPECTED, "cmp")  # no branch
        monitor.refresh()
        assert monitor.suspects() == []
        assert "unattributed alarms: 1" in monitor.summary()
        assert monitor.detection_latency(1.0) == pytest.approx(1.0)

    def test_end_to_end_with_combiner(self):
        from repro.adversary import PayloadCorruptionBehavior
        from repro.core import CombinerChainParams, CompareConfig, build_combiner_chain
        from repro.traffic.iperf import PathEndpoints, run_ping

        net = Network(seed=73)
        chain = build_combiner_chain(
            net, "nc",
            CombinerChainParams(k=3, compare=CompareConfig(k=3, buffer_timeout=2e-3)),
        )
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        net.connect(h1, chain.endpoint_a)
        net.connect(h2, chain.endpoint_b)
        chain.install_mac_route(h2.mac, toward="b")
        chain.install_mac_route(h1.mac, toward="a")
        monitor = HealthMonitor()
        monitor.watch(chain.alarms)

        net.sim.schedule(
            0.005, lambda: PayloadCorruptionBehavior().attach(chain.router(1))
        )
        run_ping(PathEndpoints(net, h1, h2), count=20, interval=1e-3)
        chain.compare_core.flush()
        monitor.refresh()
        assert monitor.suspects() == [1]
        latency = monitor.detection_latency(0.005)
        assert latency is not None and latency < 0.01
