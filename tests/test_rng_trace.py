"""Tests for seeded RNG streams and the trace bus."""

import pytest

from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBus, TraceRecord


class TestRngStreams:
    def test_same_seed_same_stream_is_reproducible(self):
        a = RngStreams(42).stream("link.loss")
        b = RngStreams(42).stream("link.loss")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_streams_are_independent(self):
        streams = RngStreams(42)
        a = streams.stream("a")
        b = streams.stream("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_is_cached(self):
        streams = RngStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_adding_stream_does_not_perturb_existing(self):
        s1 = RngStreams(7)
        a_only = [s1.stream("a").random() for _ in range(5)]
        s2 = RngStreams(7)
        s2.stream("b").random()  # interleave a new consumer
        a_with_b = [s2.stream("a").random() for _ in range(5)]
        assert a_only == a_with_b

    def test_different_master_seeds_differ(self):
        a = RngStreams(1).stream("x")
        b = RngStreams(2).stream("x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_deterministic_and_distinct(self):
        base = RngStreams(3)
        f1 = base.fork("rep1").stream("x")
        f1_again = RngStreams(3).fork("rep1").stream("x")
        f2 = RngStreams(3).fork("rep2").stream("x")
        seq1 = [f1.random() for _ in range(5)]
        assert seq1 == [f1_again.random() for _ in range(5)]
        assert seq1 != [f2.random() for _ in range(5)]


class TestTraceBus:
    def test_emit_retains_records(self):
        bus = TraceBus(retain=True)
        bus.emit(1.0, "link.drop", "link1", reason="queue")
        assert len(bus.records) == 1
        record = bus.records[0]
        assert record.topic == "link.drop"
        assert record.data["reason"] == "queue"

    def test_subscribe_by_topic(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("alarm", seen.append)
        bus.emit(0.0, "alarm", "compare")
        bus.emit(0.0, "other", "x")
        assert len(seen) == 1

    def test_wildcard_subscription(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("", seen.append)
        bus.emit(0.0, "a", "x")
        bus.emit(0.0, "b", "y")
        assert len(seen) == 2

    def test_unsubscribe(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("t", seen.append)
        bus.unsubscribe("t", seen.append)
        bus.emit(0.0, "t", "x")
        assert seen == []

    def test_select_filters_topic_and_source(self):
        bus = TraceBus(retain=True)
        bus.emit(0.0, "a", "s1")
        bus.emit(0.0, "a", "s2")
        bus.emit(0.0, "b", "s1")
        assert len(bus.select(topic="a")) == 2
        assert len(bus.select(source="s1")) == 2
        assert len(bus.select(topic="a", source="s1")) == 1

    def test_count(self):
        bus = TraceBus(retain=True)
        for _ in range(3):
            bus.emit(0.0, "x", "s")
        assert bus.count("x") == 3
        assert bus.count("y") == 0

    def test_retention_bound(self):
        bus = TraceBus(retain=True, max_records=5)
        for i in range(10):
            bus.emit(float(i), "t", "s")
        # 5 data records + the one-time saturation warning
        assert len(bus.records) == 6
        assert len(bus.select(topic="t")) == 5

    def test_saturation_warning_and_dropped_count(self):
        bus = TraceBus(retain=True, max_records=3)
        for i in range(3):
            bus.emit(float(i), "t", "s")
        assert bus.dropped_count == 0
        assert bus.count(TraceBus.SATURATION_TOPIC) == 0

        for i in range(4):
            bus.emit(float(3 + i), "t", "s")
        assert bus.dropped_count == 4
        # the warning is emitted exactly once and is itself retained
        warnings = bus.select(topic=TraceBus.SATURATION_TOPIC)
        assert len(warnings) == 1
        assert warnings[0].data["max_records"] == 3
        assert warnings[0].data["first_dropped_topic"] == "t"

    def test_saturation_warning_reaches_listeners(self):
        bus = TraceBus(retain=True, max_records=1)
        seen = []
        bus.subscribe(TraceBus.SATURATION_TOPIC, seen.append)
        bus.emit(0.0, "t", "s")
        bus.emit(1.0, "t", "s")
        assert len(seen) == 1

    def test_listeners_still_fire_after_saturation(self):
        bus = TraceBus(max_records=1)
        seen = []
        bus.subscribe("t", seen.append)
        for i in range(5):
            bus.emit(float(i), "t", "s")
        assert len(seen) == 5  # delivery is never truncated, only retention

    def test_retention_disabled(self):
        bus = TraceBus(retain=False)  # the explicit spelling stays accepted
        bus.emit(0.0, "t", "s")
        assert bus.records == []
        assert bus.dropped_count == 0  # disabling retention is not a drop

    def test_clear(self):
        bus = TraceBus(retain=True, max_records=2)
        for i in range(4):
            bus.emit(float(i), "t", "s")
        bus.clear()
        assert bus.records == []
        assert bus.dropped_count == 0
        # the saturation warning re-arms after clear()
        for i in range(4):
            bus.emit(float(i), "t", "s")
        assert bus.count(TraceBus.SATURATION_TOPIC) == 1

    def test_clear_resets_topic_index(self):
        bus = TraceBus(retain=True)
        bus.emit(0.0, "a", "s")
        bus.clear()
        assert bus.select(topic="a") == []
        assert bus.count("a") == 0
        assert bus.topics() == []
        bus.emit(1.0, "a", "s")
        assert bus.count("a") == 1


class TestOptInRetention:
    """A bus keeps records only once a reader asks for them."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts every record `emit` builds (a spy on its constructor)."""
        import repro.sim.trace as trace

        calls = []
        real = trace._new_record

        def spy(cls, fields):
            calls.append(fields[1])
            return real(cls, fields)

        monkeypatch.setattr(trace, "_new_record", spy)
        return calls

    def test_default_bus_retains_nothing(self):
        bus = TraceBus()
        for i in range(5):
            bus.emit(float(i), "t", "s", i=i)
        assert bus.records == []
        assert bus.topics() == []
        assert bus.count("t") == 0
        assert bus.dropped_count == 0

    def test_no_matching_listener_builds_no_record(self, built):
        bus = TraceBus()
        bus.emit(0.0, "link.drop", "l1")
        bus.subscribe("alarm", lambda r: None)
        bus.subscribe("compare.*", lambda r: None)
        bus.emit(1.0, "link.drop", "l1")
        listener = lambda r: None  # noqa: E731
        bus.subscribe("link.drop", listener)
        bus.unsubscribe("link.drop", listener)
        bus.emit(2.0, "link.drop", "l1")
        assert built == []

    def test_matching_listener_gets_records_built_for_it(self, built):
        for pattern in ("link.drop", "link.*", ""):
            bus = TraceBus()
            seen = []
            bus.subscribe(pattern, seen.append)
            bus.emit(0.0, "link.drop", "l1", reason="queue")
            bus.emit(0.0, "alarm", "c")
            expected = ["link.drop"] if pattern != "" else ["link.drop", "alarm"]
            assert [r.topic for r in seen] == expected, pattern
            assert built == expected, pattern
            assert seen[0].data == {"reason": "queue"}
            assert bus.records == []
            built.clear()

    def test_retention_started_mid_run_keeps_records_from_then_on(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("", seen.append)
        bus.emit(0.0, "a", "s", i=0)
        bus.emit(1.0, "b", "s", i=1)
        bus.start_retaining()
        bus.emit(2.0, "a", "s", i=2)
        bus.emit(3.0, "b", "s", i=3)
        assert [r.data["i"] for r in bus.records] == [2, 3]
        assert [r.data["i"] for r in bus.select(topic="a")] == [2]
        assert bus.topics() == ["a", "b"]
        assert [r.data["i"] for r in seen] == [0, 1, 2, 3]

    def test_saturation_contract_after_a_late_start(self):
        bus = TraceBus(max_records=2)
        seen = []
        bus.subscribe("", seen.append)
        for i in range(3):
            bus.emit(float(i), f"early{i}", "s")
        assert bus.dropped_count == 0  # nothing kept yet, nothing lost
        bus.start_retaining()
        for i in range(4):
            bus.emit(float(3 + i), f"t{i}", "s")
        assert [r.topic for r in bus.records] == ["t0", "t1", TraceBus.SATURATION_TOPIC]
        assert bus.dropped_count == 2
        assert bus.records[-1].data == {"max_records": 2, "first_dropped_topic": "t2"}
        assert [r.topic for r in seen] == [
            "early0", "early1", "early2",
            "t0", "t1", TraceBus.SATURATION_TOPIC, "t2", "t3",
        ]


class TestTraceBusPrefixSubscriptions:
    def test_prefix_subscription_matches_topic_family(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("link.*", seen.append)
        bus.emit(0.0, "link.drop", "l1")
        bus.emit(0.0, "link.tx", "l1")
        bus.emit(0.0, "compare.release", "c")
        assert [r.topic for r in seen] == ["link.drop", "link.tx"]

    def test_prefix_without_dot_matches_same_way(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("link*", seen.append)
        bus.emit(0.0, "link.drop", "l1")
        bus.emit(0.0, "linkish", "x")
        assert len(seen) == 2

    def test_exact_and_prefix_and_catchall_each_fire_once(self):
        bus = TraceBus()
        order = []
        bus.subscribe("link.drop", lambda r: order.append("exact"))
        bus.subscribe("link.*", lambda r: order.append("prefix"))
        bus.subscribe("", lambda r: order.append("all"))
        bus.emit(0.0, "link.drop", "l1")
        assert order == ["exact", "prefix", "all"]

    def test_unsubscribe_prefix(self):
        bus = TraceBus()
        seen = []
        bus.subscribe("link.*", seen.append)
        bus.unsubscribe("link.*", seen.append)
        bus.emit(0.0, "link.drop", "l1")
        assert seen == []

    def test_select_with_prefix_pattern_preserves_global_order(self):
        bus = TraceBus(retain=True)
        bus.emit(0.0, "link.tx", "a")
        bus.emit(1.0, "compare.release", "c")
        bus.emit(2.0, "link.drop", "b")
        out = bus.select(topic="link.*")
        assert [(r.topic, r.source) for r in out] == [("link.tx", "a"), ("link.drop", "b")]

    def test_count_with_prefix_pattern(self):
        bus = TraceBus(retain=True)
        bus.emit(0.0, "link.tx", "a")
        bus.emit(0.0, "link.drop", "a")
        bus.emit(0.0, "other", "a")
        assert bus.count("link.*") == 2

    def test_indexed_select_matches_scan(self):
        bus = TraceBus(retain=True)
        for i in range(20):
            bus.emit(float(i), "a" if i % 3 else "b", f"s{i % 2}")
        indexed = bus.select(topic="a")
        scanned = [r for r in bus.records if r.topic == "a"]
        assert indexed == scanned
        assert bus.count("a") == len(scanned)
        assert bus.topics() == ["a", "b"]


class TestTraceBusSaturationContract:
    def test_listener_stream_warning_precedes_first_dropped_record(self):
        # Listeners see every record; the warning is injected immediately
        # BEFORE the first dropped record (it announces the drop).
        bus = TraceBus(retain=True, max_records=2)
        seen = []
        bus.subscribe("", seen.append)
        for i in range(4):
            bus.emit(float(i), f"t{i}", "s")
        topics = [r.topic for r in seen]
        assert topics == ["t0", "t1", TraceBus.SATURATION_TOPIC, "t2", "t3"]

    def test_retained_log_ends_with_warning_not_the_dropped_record(self):
        # Retention diverges from the listener stream at the first drop:
        # the warning is the final retained entry and the dropped record
        # itself is gone.
        bus = TraceBus(retain=True, max_records=2)
        for i in range(4):
            bus.emit(float(i), f"t{i}", "s")
        topics = [r.topic for r in bus.records]
        assert topics == ["t0", "t1", TraceBus.SATURATION_TOPIC]
        assert bus.dropped_count == 2

    def test_warning_reaches_exact_and_prefix_listeners_of_its_topic(self):
        # `emit` skips dispatch for topics nobody listens to; the warning
        # is dispatched on its own topic, not on the dropped record's.
        bus = TraceBus(retain=True, max_records=1)
        exact, family, dropped = [], [], []
        bus.subscribe(TraceBus.SATURATION_TOPIC, exact.append)
        bus.subscribe("trace.*", family.append)
        bus.subscribe("t1", dropped.append)
        for i in range(3):
            bus.emit(float(i), f"t{i}", "s")
        assert [r.topic for r in exact] == [TraceBus.SATURATION_TOPIC]
        assert family == exact
        assert exact[0].data == {"max_records": 1, "first_dropped_topic": "t1"}
        assert [r.topic for r in dropped] == ["t1"]  # dropped, still delivered
        assert bus.records[-1] is exact[0]
        assert bus.count(TraceBus.SATURATION_TOPIC) == 1


class TestTraceRecord:
    def test_keyword_and_positional_construction_agree(self):
        by_keyword = TraceRecord(time=1.0, topic="t", source="s", data={"a": 1})
        assert by_keyword == TraceRecord(1.0, "t", "s", {"a": 1})
        assert (by_keyword.time, by_keyword.topic, by_keyword.source) == (1.0, "t", "s")
        assert by_keyword.data == {"a": 1}

    def test_rejects_attribute_assignment(self):
        bus = TraceBus(retain=True)
        bus.emit(1.0, "t", "s", a=1)
        record = bus.records[0]
        assert type(record) is TraceRecord
        for name in ("time", "topic", "source", "data", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert not hasattr(record, "__dict__")


class TestEveryMatchingListenerSeesEachRecordOnce:
    """`emit` dispatches only when some listener can match the topic;
    that test must never lose or repeat a delivery."""

    TOPICS = ["link.drop", "link.tx", "linkish", "alarm", "ctrl.vote", "link.drop"]

    def _emit_all(self, bus, start=0):
        for i, topic in enumerate(self.TOPICS):
            bus.emit(float(start + i), topic, "s", i=start + i)

    def test_exact_prefix_and_catch_all(self):
        bus = TraceBus(retain=True)
        exact, prefix, everything = [], [], []
        bus.subscribe("link.drop", exact.append)
        bus.subscribe("link.*", prefix.append)
        bus.subscribe("", everything.append)
        self._emit_all(bus)
        assert [r.data["i"] for r in exact] == [0, 5]
        assert [r.data["i"] for r in prefix] == [0, 1, 5]
        assert everything == bus.records
        assert len(bus.records) == len(self.TOPICS)

    def test_each_shape_alone(self):
        for pattern, expected in (
            ("alarm", [3]),
            ("link*", [0, 1, 2, 5]),
            ("", [0, 1, 2, 3, 4, 5]),
        ):
            bus = TraceBus(retain=False)
            seen = []
            bus.subscribe(pattern, seen.append)
            self._emit_all(bus)
            assert [r.data["i"] for r in seen] == expected, pattern
            assert bus.records == []

    def test_listener_subscribed_after_earlier_emits(self):
        bus = TraceBus()
        self._emit_all(bus)  # nobody listening: dispatch skipped
        for pattern, expected in (
            ("ctrl.vote", [10]),
            ("ctrl.*", [10]),
            ("", [6, 7, 8, 9, 10, 11]),
        ):
            seen = []
            bus.subscribe(pattern, seen.append)
            self._emit_all(bus, start=6)
            bus.unsubscribe(pattern, seen.append)
            assert [r.data["i"] for r in seen] == expected, pattern

    def test_listener_unsubscribed_mid_run(self):
        bus = TraceBus(retain=True)
        exact, prefix, everything = [], [], []
        bus.subscribe("link.drop", exact.append)
        bus.subscribe("link.*", prefix.append)
        bus.subscribe("", everything.append)
        self._emit_all(bus)
        bus.unsubscribe("link.drop", exact.append)
        bus.unsubscribe("link.*", prefix.append)
        bus.unsubscribe("", everything.append)
        survivor = []
        bus.subscribe("alarm", survivor.append)
        self._emit_all(bus, start=6)
        assert [r.data["i"] for r in exact] == [0, 5]
        assert [r.data["i"] for r in prefix] == [0, 1, 5]
        assert [r.data["i"] for r in everything] == [0, 1, 2, 3, 4, 5]
        assert [r.data["i"] for r in survivor] == [9]
        assert len(bus.records) == 2 * len(self.TOPICS)


class TestAskBeforeBuilding:
    """`wants(topic)`: would a record on ``topic`` be kept or delivered?
    The answer follows every change of retention and subscription."""

    def test_a_quiet_bus_wants_nothing(self):
        bus = TraceBus()
        assert not bus.wants("ctrl.vote")
        assert not bus.wants("")

    def test_a_retaining_bus_wants_everything(self):
        assert TraceBus(retain=True).wants("ctrl.vote")
        bus = TraceBus()
        assert not bus.wants("ctrl.vote")
        bus.start_retaining()
        assert bus.wants("ctrl.vote")

    def test_each_shape_opens_its_own_topics(self):
        for pattern, wanted, unwanted in (
            ("ctrl.vote", ["ctrl.vote"], ["ctrl.release", "ctrl.vote.x"]),
            ("ctrl.*", ["ctrl.vote", "ctrl.release"], ["compare.release", "ctrl"]),
            ("", ["ctrl.vote", "alarm"], []),
        ):
            bus = TraceBus()
            # answers given before the subscription must not outlive it
            assert not any(bus.wants(topic) for topic in wanted + unwanted)
            listener = lambda record: None  # noqa: E731
            bus.subscribe(pattern, listener)
            assert all(bus.wants(topic) for topic in wanted), pattern
            assert not any(bus.wants(topic) for topic in unwanted), pattern
            bus.unsubscribe(pattern, listener)
            assert not any(bus.wants(topic) for topic in wanted + unwanted), pattern

    def test_one_of_two_listeners_leaving_keeps_the_topic_open(self):
        bus = TraceBus()
        first, second = (lambda record: None), (lambda record: None)
        bus.subscribe("link.*", first)
        bus.subscribe("link.*", second)
        bus.unsubscribe("link.*", first)
        assert bus.wants("link.drop")
        bus.unsubscribe("link.*", second)
        assert not bus.wants("link.drop")

    def test_a_detached_tracer_leaves_no_prefix_behind(self):
        from repro.obs.spans import PacketTracer
        from repro.scenarios.testbed import build_testbed

        network = build_testbed("central3", seed=1).network
        bus = network.trace
        tracer = PacketTracer(bus, sample_rate=0.0)
        tracer.attach(network)
        assert bus.wants("span.hop")
        tracer.detach()
        assert not bus.wants("span.hop")
        assert bus._prefix_listeners == {}


class TestListenersChangingDuringDispatch:
    """Listener lists are copied on write: who gets a record is settled
    before its first listener runs."""

    PATTERNS = ("t", "t*", "")

    def test_a_listener_leaving_does_not_hide_the_record_from_the_next(self):
        for pattern in self.PATTERNS:
            bus = TraceBus()
            got = []

            def leaving(record):
                got.append("a")
                bus.unsubscribe(pattern, leaving)

            bus.subscribe(pattern, leaving)
            bus.subscribe(pattern, lambda record: got.append("b"))
            bus.emit(0.0, "t", "s")
            assert got == ["a", "b"], pattern
            bus.emit(1.0, "t", "s")
            assert got == ["a", "b", "b"], pattern

    def test_a_listener_joining_gets_the_next_record_not_this_one(self):
        for pattern in self.PATTERNS:
            bus = TraceBus()
            got = []

            def joining(record):
                got.append(("b", record.time))

            def inviting(record):
                got.append(("a", record.time))
                if record.time == 0.0:
                    bus.subscribe(pattern, joining)
                    # a new prefix, while the prefix table may be iterated
                    bus.subscribe("other.*", joining)

            bus.subscribe(pattern, inviting)
            bus.emit(0.0, "t", "s")
            bus.emit(1.0, "t", "s")
            assert got == [("a", 0.0), ("a", 1.0), ("b", 1.0)], pattern
