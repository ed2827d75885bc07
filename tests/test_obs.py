"""Tests for the observability stack: metrics, spans, run reports."""

import json

import pytest

from repro.net.packet import Packet
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsError,
    MetricsRegistry,
    StatBlock,
    active_registry,
    bind_counter,
    bind_histogram,
    use_registry,
)
from repro.obs.events import sanitise_value
from repro.obs.report import (
    DEFAULT_WATCHES,
    RunReport,
    WatchRule,
    diff_reports,
    dump_records_jsonl,
)
from repro.obs.spans import PacketTracer
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus


def _packet(payload=b"x"):
    from repro.net.addresses import IpAddress, MacAddress

    return Packet.udp(
        src_mac=MacAddress.from_index(1),
        dst_mac=MacAddress.from_index(2),
        src_ip=IpAddress.from_index(1),
        dst_ip=IpAddress.from_index(2),
        sport=1000,
        dport=2000,
        payload=payload,
    )


class TestMetricsRegistry:
    def test_counter_inc_and_sample(self):
        reg = MetricsRegistry()
        c = reg.counter("pkts_total", "packets", labelnames=("link",))
        c.labels("a").inc()
        c.labels("a").inc(2)
        c.labels("b").inc()
        samples = reg.samples()
        assert samples['pkts_total{link="a"}'] == 3
        assert samples['pkts_total{link="b"}'] == 1

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.counter("x_total").labels().inc(-1)

    def test_histogram_observe_and_sample(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(1.0, 2.0, 4.0)).labels()
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        sample = reg.samples()["lat_seconds"]
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(6.5)
        assert sample["buckets"] == {"1.0": 1, "2.0": 2, "4.0": 1}

    def test_labels_by_keyword(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labelnames=("a", "b"))
        c.labels(b="2", a="1").inc()
        assert reg.samples()['x_total{a="1",b="2"}'] == 1

    def test_label_arity_mismatch_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", labelnames=("a",))
        with pytest.raises(MetricsError):
            c.labels("1", "2")

    def test_reregistration_same_shape_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labelnames=("l",))
        b = reg.counter("x_total", labelnames=("l",))
        assert a is b

    def test_reregistration_conflicting_shape_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("l",))
        with pytest.raises(MetricsError):
            reg.histogram("x_total", labelnames=("l",))
        with pytest.raises(MetricsError):
            reg.counter("x_total", labelnames=("other",))

    def test_unlabelled_family_is_reached_through_empty_labels(self):
        reg = MetricsRegistry()
        family = reg.counter("plain_total")
        assert reg.samples() == {}  # no child until one is asked for
        family.labels().inc(7)
        assert reg.samples()["plain_total"] == 7

    def test_disabled_registry_binds_none(self):
        with use_registry(MetricsRegistry(enabled=False)) as reg:
            assert bind_counter("x_total", labelnames=("l",)) is None
            assert bind_histogram("h_seconds", node="a") is None
            StatBlock.publish_samples(lambda: {"x_total": 1})
        assert reg.samples() == {}

    def test_samples_with_extra_labels_merge_sorted(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("link",)).labels("l1").inc()
        samples = reg.samples({"scenario": "central3"})
        assert samples == {'x_total{link="l1",scenario="central3"}': 1}

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "help text", labelnames=("l",)).labels("a").inc(2)
        reg.histogram("h_seconds", buckets=(1.0,)).labels().observe(0.5)
        text = reg.render_prometheus()
        assert "# HELP x_total help text" in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{l="a"} 2' in text
        assert 'h_seconds_bucket{le="1.0"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text

    def test_use_registry_restores_previous(self):
        before = active_registry()
        mine = MetricsRegistry()
        with use_registry(mine) as got:
            assert got is mine
            assert active_registry() is mine
        assert active_registry() is before

    def test_default_active_registry_is_disabled(self):
        assert active_registry().enabled is False

    def test_default_latency_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class _DemoStats(StatBlock):
    __slots__ = ("hits", "busy_seconds")
    FLOAT_FIELDS = ("busy_seconds",)


class TestStatBlock:
    def test_fields_start_at_zero_in_declared_order(self):
        stats = _DemoStats()
        assert stats.as_dict() == {"hits": 0, "busy_seconds": 0.0}
        assert list(stats.as_dict()) == ["hits", "busy_seconds"]
        assert isinstance(stats.hits, int) and isinstance(stats.busy_seconds, float)
        with pytest.raises(AttributeError):
            stats.undeclared = 1

    def test_published_block_is_read_live_at_snapshot_time(self):
        with use_registry(MetricsRegistry()) as reg:
            stats = _DemoStats().publish("demo", node="a")
        assert reg.samples()['demo_hits_total{node="a"}'] == 0
        stats.hits += 3
        samples = reg.samples()
        assert samples['demo_hits_total{node="a"}'] == 3
        assert reg.samples() == samples  # reading does not accumulate

    def test_blocks_with_the_same_labels_sum_like_a_shared_counter(self):
        with use_registry(MetricsRegistry()) as reg:
            first = _DemoStats().publish("demo", node="a")
            second = _DemoStats().publish("demo", node="a")
            other = _DemoStats().publish("demo", node="b")
        first.hits, second.hits, other.hits = 1, 2, 5
        samples = reg.samples({"scenario": "s"})
        assert samples['demo_hits_total{node="a",scenario="s"}'] == 3
        assert samples['demo_hits_total{node="b",scenario="s"}'] == 5

    def test_publish_samples_types_by_name_in_prometheus_text(self):
        depth = [4]
        with use_registry(MetricsRegistry()) as reg:
            StatBlock.publish_samples(
                lambda: {"queue_depth": depth[0], "queue_drops_total": 2}, q="x"
            )
        text = reg.render_prometheus()
        assert "# TYPE queue_depth gauge" in text
        assert 'queue_depth{q="x"} 4' in text
        assert "# TYPE queue_drops_total counter" in text
        assert 'queue_drops_total{q="x"} 2' in text

    def test_disabled_registry_keeps_no_reader(self):
        reg = MetricsRegistry(enabled=False)
        with use_registry(reg):
            _DemoStats().publish("demo", node="a")
            StatBlock.publish_samples(lambda: {"x_total": 1})
        assert reg.samples() == {} and reg._sources == []


class TestPacketTraceId:
    def test_trace_id_defaults_to_none(self):
        assert _packet().trace_id is None

    def test_trace_id_survives_copy(self):
        p = _packet()
        p.trace_id = 17
        q = p.copy()
        assert q.trace_id == 17
        assert q.meta is None  # meta still does NOT survive copy


class TestPacketTracer:
    def test_mark_assigns_incrementing_ids_and_emits_inject(self):
        bus = TraceBus(retain=True)
        tracer = PacketTracer(bus)
        a, b = _packet(), _packet()
        assert tracer.mark(a, 0.0, "h1") == 1
        assert tracer.mark(b, 1.0, "h1") == 2
        assert tracer.marked == 2
        inject = bus.select(topic="span.inject")
        assert [r.data["trace"] for r in inject] == [1, 2]
        assert tracer.trajectory(1)[0].topic == "span.inject"

    def test_sample_rate_zero_marks_nothing(self):
        bus = TraceBus()
        tracer = PacketTracer(bus, sample_rate=0.0)
        assert tracer.mark(_packet(), 0.0, "h1") is None
        assert tracer.sampled_out == 1
        assert tracer.marked == 0

    def test_sampling_uses_rng_deterministically(self):
        import random

        bus = TraceBus()
        tracer = PacketTracer(bus, sample_rate=0.5, rng=random.Random(7))
        decisions = [tracer.mark(_packet(), 0.0, "h") is not None for _ in range(20)]
        bus2 = TraceBus()
        tracer2 = PacketTracer(bus2, sample_rate=0.5, rng=random.Random(7))
        decisions2 = [tracer2.mark(_packet(), 0.0, "h") is not None for _ in range(20)]
        assert decisions == decisions2
        assert 0 < tracer.marked < 20

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            PacketTracer(TraceBus(), sample_rate=1.5)

    def test_records_with_packet_payload_are_indexed(self):
        bus = TraceBus()
        tracer = PacketTracer(bus)
        p = _packet()
        tracer.mark(p, 0.0, "h1")
        bus.emit(1.0, "link.drop", "l1", reason="queue", packet=p)
        drops = tracer.drops()
        assert len(drops) == 1
        assert drops[0].topic == "link.drop"

    def test_unmarked_packets_are_not_indexed(self):
        bus = TraceBus()
        tracer = PacketTracer(bus)
        bus.emit(0.0, "link.drop", "l1", packet=_packet())
        bus.emit(0.0, "link.tx", "l1", queue_depth=1)
        assert tracer.trace_ids() == []
        assert tracer.events == 0

    def test_max_traces_overflow_counts(self):
        bus = TraceBus()
        tracer = PacketTracer(bus, max_traces=1)
        tracer.mark(_packet(), 0.0, "h")
        bus.emit(0.0, "span.hop", "n", trace=999)  # second trajectory
        assert tracer.overflow_events == 1
        assert tracer.trace_ids() == [1]

    def test_detach_stops_indexing(self):
        bus = TraceBus()
        tracer = PacketTracer(bus)
        tracer.mark(_packet(), 0.0, "h")
        tracer.detach()
        bus.emit(1.0, "span.hop", "n", trace=1)
        assert len(tracer.trajectory(1)) == 1  # only the inject record

    def test_clear_resets_counters_and_spans(self):
        bus = TraceBus()
        tracer = PacketTracer(bus)
        tracer.mark(_packet(), 0.0, "h")
        tracer.clear()
        assert tracer.trace_ids() == []
        assert tracer.marked == 0
        assert tracer.stats()["events"] == 0


class TestEndToEndTracing:
    def test_central3_trajectory_covers_duplication_vote_and_delivery(self):
        from repro.scenarios.testbed import build_testbed
        from repro.traffic.iperf import run_udp_flow

        tb = build_testbed("central3", seed=3)
        tracer = PacketTracer(tb.network.trace)
        tracer.attach(tb.network)
        result = run_udp_flow(tb.path(), rate_bps=50e6, duration=2e-3,
                              send_cost=tb.params.udp_send_cost)
        tb.compare_core.flush()
        assert result.received_unique > 0
        assert tracer.marked >= result.sent  # every datagram marked
        tid = tracer.trace_ids()[0]
        topics = {r.topic for r in tracer.trajectory(tid)}
        assert "span.inject" in topics
        assert "span.hop" in topics
        assert "compare.vote" in topics
        # the released copy reaches h2: its delivery hop is in the trail
        assert "h2" in tracer.hop_sources(tid)
        # k=3 voting: at least 2 vote events for a released packet
        votes = [r for r in tracer.trajectory(tid) if r.topic == "compare.vote"]
        assert len(votes) >= 2

    def test_endpoint_fanout_copies_stay_in_one_trajectory(self):
        from repro.scenarios.testbed import build_testbed
        from repro.traffic.iperf import run_ping

        tb = build_testbed("dup3", seed=3)
        tracer = PacketTracer(tb.network.trace)
        tracer.attach(tb.network)
        run_ping(tb.path(), count=1, interval=1e-3)
        tid = tracer.trace_ids()[0]
        dups = [r for r in tracer.trajectory(tid) if r.topic == "endpoint.dup"]
        assert dups and dups[0].data["fanout"] == 3
        # all three copies' hops are attributed to the same trace id
        hop_sources = tracer.hop_sources(tid)
        assert len([s for s in hop_sources if s.startswith("nc_r")]) >= 3


def _reachable_stat_blocks(root):
    """Every StatBlock reachable from ``root`` through object references
    (classes, modules and function bodies are not entered)."""
    import gc
    import types

    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, blocks = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, StatBlock):
            blocks.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                stack.append(ref)
    return blocks


class TestCollectAndReport:
    def _mini_run(self):
        from repro.obs.summary import run_instrumented_scenario

        return run_instrumented_scenario("central3", duration=2e-3, seed=5)

    def test_collect_network_pulls_component_counters(self):
        run = self._mini_run()
        samples = run.registry.samples()
        assert any(k.startswith("link_tx_packets_total") for k in samples)
        assert any(k.startswith("flowtable_lookups_total") for k in samples)
        assert any(k.startswith("compare_released_total") for k in samples)
        assert samples["sim_events_processed_total"] > 0
        assert samples["sim_pending_events_peak"] > 0
        # push histograms bound at construction observed real releases
        released = [v for k, v in samples.items()
                    if k.startswith("compare_release_latency_seconds")]
        assert released and released[0]["count"] > 0

    def test_every_stat_block_field_reaches_the_snapshot(self):
        """Completeness: no counter may exist in an object and not in the
        export.  Walks each instrumented testbed for StatBlocks and
        requires every field to be a sample whose values add up to the
        objects' own."""
        from repro.core.combiner import CompareHostStats
        from repro.core.compare import CompareStats
        from repro.core.endpoint import EndpointStats
        from repro.ctrl.compare import CtrlStats
        from repro.net.link import LinkStats
        from repro.obs.summary import (
            QUICK_SCENARIOS,
            run_instrumented_ctrl_scenario,
            run_instrumented_scenario,
        )
        from repro.net.node import DatapathStats
        from repro.openflow.switch import SwitchStats
        from repro.transport.base import SessionStats

        families = {
            LinkStats: "link", SwitchStats: "switch", DatapathStats: "switch",
            EndpointStats: "endpoint",
            CompareStats: "compare", CtrlStats: "ctrl",
            SessionStats: "transport_session", CompareHostStats: "compare_host",
        }
        runs = [
            run_instrumented_scenario(variant, duration=2e-3, seed=5)
            for variant in QUICK_SCENARIOS
        ]
        runs.append(run_instrumented_ctrl_scenario(duration=2e-3, seed=5))
        seen = set()
        for run in runs:
            samples = run.registry.samples()
            # a snapshot reads the counters, it does not add them up again
            assert run.registry.samples() == samples
            by_name = {}
            for key, value in samples.items():
                by_name.setdefault(key.partition("{")[0], []).append(value)
            totals = {}
            for block in _reachable_stat_blocks(run.testbed):
                seen.add(type(block))
                for field, value in block.as_dict().items():
                    name = f"{families[type(block)]}_{field}_total"
                    totals[name] = totals.get(name, 0) + value
            assert totals
            for name, total in totals.items():
                assert name in by_name, f"{name} missing from the snapshot"
                assert sum(by_name[name]) == pytest.approx(total), name
        assert seen == set(families)

    def test_a_datapath_publishes_only_the_counters_it_can_move(self):
        # a combiner endpoint has no flow table, pipeline or behaviour
        # hook: the switch counters of those are not exported for it
        samples = self._mini_run().registry.samples()

        def switch_samples(name):
            return [key for key in samples
                    if key.startswith("switch_") and f'switch="{name}"' in key]

        assert len(switch_samples("nc_sA")) == 6
        assert len(switch_samples("nc_r0")) == 11

    def test_report_roundtrip(self, tmp_path):
        report = RunReport(
            name="t", meta={"seed": 1},
            metrics={"a_total": 3, "h": {"count": 2, "sum": 0.5, "buckets": {}}},
            records=[{"scenario": "x"}], spans={"x": {"marked": 1}},
        )
        path = tmp_path / "r.json"
        report.save(path)
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.counter_value("a_total") == 3
        assert loaded.counter_value("h") == 2  # histogram -> count
        assert loaded.counter_value("missing") == 0

    def test_report_rejects_newer_version(self):
        with pytest.raises(ValueError):
            RunReport.from_dict({"version": 999})

    def test_summary_report_is_deterministic(self):
        from repro.obs.summary import build_run_report

        kwargs = dict(scenarios=("central3",), duration=2e-3, seed=9)
        a, _ = build_run_report(**kwargs)
        b, _ = build_run_report(**kwargs)
        assert a.metrics == b.metrics
        assert a.records == b.records
        assert a.spans == b.spans


class TestDiff:
    def _report(self, **metrics):
        return RunReport(name="r", metrics=metrics)

    def test_watch_breach_requires_both_ratio_and_increase(self):
        rule = WatchRule("x*", max_ratio=1.5, max_increase=10.0)
        assert not rule.breached(100, 140)  # ratio ok
        assert not rule.breached(2, 9)      # ratio breached, increase ok
        assert rule.breached(100, 200)

    def test_diff_flags_breached_counters(self):
        base = self._report(**{'link_queue_drops_total{link="a"}': 0.0})
        new = self._report(**{'link_queue_drops_total{link="a"}': 100.0})
        findings = diff_reports(base, new)
        assert len(findings) == 1
        assert findings[0].breached
        assert "FAIL" in findings[0].describe()

    def test_diff_ignores_unwatched_keys(self):
        base = self._report(unwatched_total=0.0)
        new = self._report(unwatched_total=1e9)
        assert diff_reports(base, new) == []

    def test_diff_within_thresholds_passes(self):
        base = self._report(**{'flowtable_scan_steps_total{switch="s"}': 1000.0})
        new = self._report(**{'flowtable_scan_steps_total{switch="s"}': 1040.0})
        findings = diff_reports(base, new)
        assert findings and not findings[0].breached

    def test_first_matching_watch_wins(self):
        rules = [WatchRule("a*", max_ratio=10.0, max_increase=1e9),
                 WatchRule("*", max_ratio=1.0, max_increase=0.0)]
        base = self._report(a_total=1.0)
        new = self._report(a_total=5.0)
        findings = diff_reports(base, new, rules)
        assert not findings[0].breached  # matched the lenient rule first

    def test_default_watches_cover_flowtable_scans(self):
        patterns = [w.pattern for w in DEFAULT_WATCHES]
        assert any(p.startswith("flowtable_scan_steps") for p in patterns)


class TestJsonlDump:
    def test_sanitise_packet_and_nested(self):
        p = _packet()
        assert isinstance(sanitise_value(p), str)
        assert sanitise_value({"k": [p, 1, None]})["k"][1] == 1

    def test_dump_records_jsonl(self, tmp_path):
        bus = TraceBus(retain=True)
        bus.emit(0.5, "link.drop", "l1", reason="queue", packet=_packet())
        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            count = dump_records_jsonl(bus.records, fh)
        assert count == 1
        line = json.loads(path.read_text().strip())
        assert line["topic"] == "link.drop"
        assert line["data"]["reason"] == "queue"
        assert isinstance(line["data"]["packet"], str)


class TestObsCli:
    def test_summary_writes_report_and_prometheus(self, tmp_path, capsys):
        from repro.analysis.cli import main

        report_path = tmp_path / "r.json"
        prom_path = tmp_path / "p.txt"
        rc = main([
            "obs", "summary", "--quick", "--duration", "0.002",
            "--report", str(report_path), "--prometheus", str(prom_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "link_tx_packets_total" in out
        assert "compare_" in out
        report = RunReport.load(report_path)
        assert report.records
        assert "# TYPE" in prom_path.read_text()

    def test_diff_exit_codes(self, tmp_path, capsys):
        from repro.analysis.cli import main

        base = tmp_path / "a.json"
        new = tmp_path / "b.json"
        RunReport(name="a", metrics={'link_queue_drops_total{link="x"}': 0.0}).save(base)
        RunReport(name="b", metrics={'link_queue_drops_total{link="x"}': 0.0}).save(new)
        assert main(["obs", "diff", str(base), str(new)]) == 0
        RunReport(name="b", metrics={'link_queue_drops_total{link="x"}': 500.0}).save(new)
        assert main(["obs", "diff", str(base), str(new)]) == 1
        assert "BREACHED" in capsys.readouterr().out

    def test_diff_custom_watch_file(self, tmp_path):
        from repro.analysis.cli import main

        base = tmp_path / "a.json"
        new = tmp_path / "b.json"
        watch = tmp_path / "w.json"
        RunReport(name="a", metrics={"my_total": 1.0}).save(base)
        RunReport(name="b", metrics={"my_total": 100.0}).save(new)
        watch.write_text(json.dumps(
            [{"pattern": "my_total", "max_ratio": 1.1, "max_increase": 1.0}]
        ))
        assert main(["obs", "diff", str(base), str(new), "--watch", str(watch)]) == 1

    def test_dump_writes_jsonl(self, tmp_path, capsys):
        from repro.analysis.cli import main

        out_path = tmp_path / "t.jsonl"
        rc = main([
            "obs", "dump", "--scenario", "linespeed", "--duration", "0.002",
            "--topic", "span.*", "-o", str(out_path),
        ])
        assert rc == 0
        lines = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert lines and all(l["topic"].startswith("span.") for l in lines)

    def test_obs_dispatch_from_main_cli(self, tmp_path, capsys):
        from repro.analysis.cli import main

        base = tmp_path / "a.json"
        new = tmp_path / "b.json"
        RunReport(name="a").save(base)
        RunReport(name="b").save(new)
        assert main(["obs", "diff", str(base), str(new)]) == 0


class TestCaseStudySpanScreening:
    def test_span_screening_matches_tap_screening_all_scenarios(self):
        from repro.analysis.tasks import CASESTUDY_RUNS, casestudy_run

        for run in CASESTUDY_RUNS:
            result = casestudy_run(run=run, seed=1, echo_count=5)
            tap, span = result["screening"], result["span_screening"]
            assert span is not None, run
            assert span["per_node"] == tap["per_node"], run
            assert span["strays"] == tap["strays"], run
            assert span["stray_nodes"] == tap["stray_nodes"], run


class TestEnginePeakPending:
    def test_peak_pending_tracks_high_water_mark(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.peak_pending_events == 5
        sim.run()
        assert sim.pending_events() == 0
        assert sim.peak_pending_events == 5  # sticky after drain
