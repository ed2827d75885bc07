"""Fleet event log: schema, gapless sequencing, farm integration, replay.

The satellite property test at the bottom runs 24 seeded farm workloads
through an :class:`EventLogWriter` and asserts the two log invariants
end to end: JSONL sequence numbers are gapless, and replaying the log
reproduces the final :class:`FarmProgress` rollup exactly — serially and
under ``--jobs 2`` process-pool sharding.
"""

import io
import json
import os

import pytest

from repro.farm.cache import ResultCache
from repro.farm.executor import FarmExecutor
from repro.farm.progress import FarmProgress
from repro.farm.spec import RunSpec, register_runner
from repro.obs.events import (
    EventLogError,
    EventLogWriter,
    FarmEventLogger,
    FleetEvent,
    ROLLUP_FIELDS,
    check_replay,
    read_events,
    run_digest,
    validate_events,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.trace import TraceBus

# ----------------------------------------------------------------------
# module-level task functions (spawn-started workers must resolve them)
# ----------------------------------------------------------------------


@register_runner("fleet.echo")
def fleet_echo_task(value, seed=0):
    return {"value": value, "seed": seed}


@register_runner("fleet.alarmed")
def fleet_alarmed_task(seed=0):
    """A result dict shaped like a chaos/ctrl run: digest-worthy."""
    return {
        "alarms": {"s1": 2, "s2": 1},
        "quarantined": [["s1", 0.01]],
        "detection_latency": 0.0042,
        "injections": [{"time": 0.005, "kind": "crash", "target": "s1"}],
        "ctrl": {"blocked": 3, "malicious_released": 0},
    }


@register_runner("fleet.crash_once")
def fleet_crash_once_task(flag_path, seed=0):
    if not os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8"):
            pass
        os._exit(3)
    return "retried-ok"


# ----------------------------------------------------------------------
# writer mechanics
# ----------------------------------------------------------------------
class TestEventLogWriter:
    def test_open_close_cycle(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        writer = EventLogWriter(path, name="t", meta={"seed": 1})
        writer.append("farm.task.queued", "farm", runner="r", key="k")
        writer.close()
        events = read_events(path)
        assert [e.kind for e in events] == [
            "log.open", "farm.task.queued", "log.close",
        ]
        assert [e.seq for e in events] == [0, 1, 2]
        assert events[0].data["name"] == "t"
        assert events[0].data["meta"] == {"seed": 1}
        assert events[-1].data["events"] == 3
        assert validate_events(events) == []

    def test_requires_exactly_one_sink(self, tmp_path):
        with pytest.raises(ValueError):
            EventLogWriter()
        with pytest.raises(ValueError):
            EventLogWriter(str(tmp_path / "x.jsonl"), fh=io.StringIO())

    def test_unknown_kind_rejected(self):
        writer = EventLogWriter(fh=io.StringIO())
        with pytest.raises(EventLogError, match="unknown event kind"):
            writer.append("farm.task.exploded", "farm", runner="r", key="k")

    def test_missing_required_field_rejected(self):
        writer = EventLogWriter(fh=io.StringIO())
        with pytest.raises(EventLogError, match="missing required fields"):
            writer.append("farm.task.done", "farm", runner="r", key="k")

    def test_append_after_close_rejected(self):
        writer = EventLogWriter(fh=io.StringIO())
        writer.close()
        with pytest.raises(EventLogError, match="closed"):
            writer.append("farm.task.queued", "farm", runner="r", key="k")

    def test_lines_are_flushed_json(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        writer = EventLogWriter(path, name="t")
        writer.append("farm.task.queued", "farm", runner="r", key="k")
        # without close: the written prefix must already be valid JSONL
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 2
        assert all(isinstance(json.loads(line), dict) for line in lines)
        writer.close()


# ----------------------------------------------------------------------
# validation + replay on synthetic streams
# ----------------------------------------------------------------------
def _event(seq, kind, **data):
    return FleetEvent(seq=seq, ts=float(seq), kind=kind, source="farm", data=data)


class TestValidation:
    def test_detects_sequence_gap(self):
        events = [
            _event(0, "log.open", version=1, name="t"),
            _event(2, "farm.task.queued", runner="r", key="k"),
        ]
        errors = validate_events(events)
        assert any("seq gap" in e for e in errors)

    def test_detects_wrong_close_count(self):
        events = [
            _event(0, "log.open", version=1, name="t"),
            _event(1, "log.close", events=99),
        ]
        errors = validate_events(events)
        assert any("log.close claims" in e for e in errors)

    def test_truncated_log_fails_check_replay(self):
        events = [
            _event(0, "log.open", version=1, name="t"),
            _event(1, "farm.task.queued", runner="r", key="k"),
        ]
        _, errors = check_replay(events)
        assert any("truncated" in e for e in errors)

    def test_replay_mismatch_detected(self):
        events = [
            _event(0, "log.open", version=1, name="t"),
            _event(1, "farm.task.queued", runner="r", key="k"),
            _event(2, "farm.summary", jobs=1, queued=1, running=0, done=1,
                   failed=0, retried=0, cache_hits=0, executed=1,
                   task_wall_s=0.0, elapsed_s=0.1),
        ]
        _, errors = check_replay(events)
        assert any("replay mismatch" in e for e in errors)

    def test_replay_counts_cached_as_done(self):
        events = [
            _event(0, "farm.task.queued", runner="r", key="a"),
            _event(1, "farm.task.cached", runner="r", key="a"),
            _event(2, "farm.task.queued", runner="r", key="b"),
            _event(3, "farm.task.started", runner="r", key="b", attempt=1),
            _event(4, "farm.task.done", runner="r", key="b", wall_time=0.25),
        ]
        rollup = FarmProgress.from_events(events).snapshot()
        assert rollup["queued"] == 2
        assert rollup["done"] == 2
        assert rollup["cache_hits"] == 1
        assert rollup["executed"] == 1
        assert rollup["task_wall_s"] == 0.25


# ----------------------------------------------------------------------
# digest extraction
# ----------------------------------------------------------------------
class TestRunDigest:
    def test_plain_results_have_no_digest(self):
        assert run_digest(3.14) is None
        assert run_digest({"goodput_mbps": 94.2}) is None
        assert run_digest("survived") is None

    def test_chaos_shaped_result(self):
        digest = run_digest(fleet_alarmed_task())
        assert digest["alarms"] == {"s1": 2, "s2": 1}
        assert digest["quarantined"] == [["s1", 0.01]]
        assert digest["detection_latency"] == 0.0042
        assert digest["faults"] == [
            {"time": 0.005, "kind": "crash", "target": "s1"}
        ]
        assert digest["ctrl_blocked"] == 3
        assert "ctrl_malicious_released" not in digest

    def test_digest_is_bounded(self):
        value = {"alarms": {f"s{i}": 1 for i in range(40)}}
        digest = run_digest(value)
        assert len(digest["alarms"]) == 8


# ----------------------------------------------------------------------
# farm integration
# ----------------------------------------------------------------------
def _run_farm(tmp_path, specs, jobs=1, cache=None, bus=None, name="t"):
    """One farm battery with an event log attached; returns (path, results)."""
    path = str(tmp_path / f"events-{name}.jsonl")
    progress = FarmProgress(bus=bus)
    writer = EventLogWriter(path, name=name)
    logger = FarmEventLogger(writer, progress)
    executor = FarmExecutor(jobs=jobs, cache=cache, progress=progress)
    results = executor.run(specs)
    logger.detach()
    writer.close()
    return path, results


class TestFarmIntegration:
    def test_full_cycle_and_cache_hits_second_run(self, tmp_path):
        specs = [RunSpec("fleet.echo", {"value": i}, seed=i) for i in range(3)]
        cache = ResultCache(tmp_path / "cache")

        path1, results1 = _run_farm(tmp_path, specs, cache=cache, name="cold")
        events1 = read_events(path1)
        kinds1 = [e.kind for e in events1]
        assert kinds1.count("farm.task.queued") == 3
        assert kinds1.count("farm.cache.miss") == 3
        assert kinds1.count("farm.task.done") == 3
        replayed, errors = check_replay(events1)
        assert errors == []
        assert replayed["executed"] == 3

        path2, results2 = _run_farm(tmp_path, specs, cache=cache, name="warm")
        events2 = read_events(path2)
        kinds2 = [e.kind for e in events2]
        assert kinds2.count("farm.task.cached") == 3
        assert "farm.cache.miss" not in kinds2
        replayed, errors = check_replay(events2)
        assert errors == []
        assert replayed["cache_hits"] == 3
        assert replayed["executed"] == 0
        assert results2 == results1

    def test_digest_events_land_in_log(self, tmp_path):
        specs = [RunSpec("fleet.alarmed", {}, seed=1)]
        path, _ = _run_farm(tmp_path, specs, name="alarmed")
        events = read_events(path)
        digests = [e for e in events if e.kind == "farm.task.digest"]
        assert len(digests) == 1
        assert digests[0].data["alarms"] == {"s1": 2, "s2": 1}
        assert digests[0].data["runner"] == "fleet.alarmed"

    def test_logger_sees_past_bus_saturation(self, tmp_path):
        """The TraceBus saturation contract: subscribed listeners get
        every record even after the retained log truncates, so a tiny
        ``max_records`` cannot corrupt the event log."""
        bus = TraceBus(retain=True, max_records=2)
        specs = [RunSpec("fleet.echo", {"value": i}, seed=i) for i in range(5)]
        path, _ = _run_farm(tmp_path, specs, bus=bus, name="tinybus")
        events = read_events(path)
        # the bus retained 2 records (+ its saturation marker), but the
        # log holds the full run
        assert len(bus.records) == 3
        assert bus.dropped_count > 0
        assert sum(e.kind == "farm.task.done" for e in events) == 5
        replayed, errors = check_replay(events)
        assert errors == []
        assert replayed["done"] == 5

    def test_running_counts_only_specs_handed_to_a_worker(self, tmp_path):
        """``farm.task.started`` means handed to a worker: ``running`` and
        ``/fleet``'s ``in_flight`` never list a spec still queued."""
        bus = TraceBus()
        peak = {"running": 0, "in_flight": 0}
        progress = FarmProgress(bus=bus)

        def watch(record):
            peak["running"] = max(peak["running"], progress.running)
            peak["in_flight"] = max(peak["in_flight"], len(progress.in_flight))

        bus.subscribe("farm.*", watch)
        path = str(tmp_path / "events-running.jsonl")
        writer = EventLogWriter(path, name="running")
        logger = FarmEventLogger(writer, progress)
        specs = [RunSpec("fleet.echo", {"value": i}, seed=i) for i in range(15)]
        FarmExecutor(jobs=2, progress=progress).run(specs)
        logger.detach()
        writer.close()
        assert peak["running"] == peak["in_flight"]
        assert 1 <= peak["running"] <= 2
        replayed, errors = check_replay(read_events(path))
        assert errors == []
        assert replayed["done"] == 15 and replayed["running"] == 0

    def test_retry_logged_and_replayable(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        specs = [RunSpec("fleet.crash_once", {"flag_path": flag}, seed=1)]
        path, results = _run_farm(tmp_path, specs, jobs=2, name="retry")
        assert list(results.values()) == ["retried-ok"]
        events = read_events(path)
        kinds = [e.kind for e in events]
        assert "farm.task.retried" in kinds
        replayed, errors = check_replay(events)
        assert errors == []
        assert replayed["retried"] == 1
        assert replayed["done"] == 1


# ----------------------------------------------------------------------
# metrics counter trio
# ----------------------------------------------------------------------
class TestFarmCounters:
    def test_cache_counter_trio(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        specs = [RunSpec("fleet.echo", {"value": i}, seed=i) for i in range(2)]
        with use_registry(registry):
            cache = ResultCache(tmp_path / "cache")
            executor = FarmExecutor(jobs=1, cache=cache)
        executor.run(specs)
        executor2 = FarmExecutor(jobs=1, cache=cache, progress=FarmProgress())
        executor2.run(specs)
        samples = registry.samples()
        assert samples["cache_misses_total"] == 2.0
        assert samples["cache_hits_total"] == 2.0
        assert samples["farm_task_retries_total"] == 0.0
        text = registry.render_prometheus()
        assert "cache_hits_total 2" in text
        # read, not pushed: the sample is the progress's own count
        executor.progress.task_started(specs[0], attempt=1)
        executor.progress.task_retried(specs[0], "worker crashed")
        assert registry.samples()["farm_task_retries_total"] == 1.0

    def test_disabled_registry_binds_nothing(self, tmp_path):
        registry = MetricsRegistry(enabled=False)
        with use_registry(registry):
            cache = ResultCache(tmp_path / "cache")
            FarmExecutor(jobs=1, cache=cache).run(
                [RunSpec("fleet.echo", {"value": 1}, seed=1)]
            )
        assert cache.misses == 1
        assert registry.samples() == {}
        assert registry.render_prometheus() == ""


# ----------------------------------------------------------------------
# telemetry must not perturb results (determinism contract)
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_results_identical_with_and_without_log(self, tmp_path):
        specs = [RunSpec("fleet.echo", {"value": i}, seed=i) for i in range(4)]
        bare = FarmExecutor(jobs=1).run(specs)
        _, logged = _run_farm(tmp_path, specs, name="identity")
        assert json.dumps(bare, sort_keys=True) == json.dumps(logged, sort_keys=True)


# ----------------------------------------------------------------------
# the 24-seed property test (satellite)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(24))
def test_property_gapless_and_replayable(tmp_path, seed):
    """For 24 seeded workloads: sequence numbers are gapless, replay
    reproduces the farm.summary rollup exactly, and a serial run equals
    a ``--jobs 2`` run on every replayed counter."""
    import random

    rng = random.Random(seed)
    n = rng.randint(2, 6)
    specs = [
        RunSpec("fleet.echo", {"value": rng.randint(0, 100)}, seed=rng.randint(0, 3))
        for _ in range(n)
    ]
    if rng.random() < 0.5:
        specs.append(RunSpec("fleet.alarmed", {}, seed=seed))
    # a tiny retained bus on odd seeds exercises the saturation contract
    bus = TraceBus(retain=True, max_records=3) if seed % 2 else None

    path_serial, results_serial = _run_farm(
        tmp_path, specs, jobs=1, bus=bus, name=f"serial-{seed}"
    )
    events = read_events(path_serial)
    assert [e.seq for e in events] == list(range(len(events)))
    replayed, errors = check_replay(events)
    assert errors == []

    path_pool, results_pool = _run_farm(
        tmp_path, specs, jobs=2, name=f"pool-{seed}"
    )
    pool_events = read_events(path_pool)
    assert [e.seq for e in pool_events] == list(range(len(pool_events)))
    pool_replayed, pool_errors = check_replay(pool_events)
    assert pool_errors == []

    assert results_pool == results_serial
    for field in ROLLUP_FIELDS:
        if field == "task_wall_s":
            continue  # wall time is real time, not replay-comparable
        assert pool_replayed[field] == replayed[field], field
