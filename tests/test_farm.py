"""Tests for the experiment farm: specs, cache, executor, progress."""

import json
import os
import time

import pytest

from repro.plan.builtin import chaos_plan, fig7_plan
from repro.farm.executor import FarmExecutor, FarmTaskError
from repro.farm.progress import FarmProgress
from repro.farm.spec import RunSpec, register_runner, resolve_runner
from repro.farm.cache import ResultCache, source_fingerprint
from repro.sim.trace import TraceBus

# ----------------------------------------------------------------------
# module-level task functions (worker processes must be able to run them)
# ----------------------------------------------------------------------


@register_runner("test.echo")
def echo_task(value, seed=0):
    return {"value": value, "seed": seed}


@register_runner("test.crash_once")
def crash_once_task(flag_path, seed=0):
    """Kill the worker on the first attempt, succeed on the retry."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w", encoding="utf-8"):
            pass
        os._exit(3)
    return "survived"


@register_runner("test.crash_always")
def crash_always_task(seed=0):
    os._exit(3)


@register_runner("test.sleepy")
def sleepy_task(duration, seed=0):
    time.sleep(duration)
    return "done"


@register_runner("test.buggy")
def buggy_task(seed=0):
    raise ValueError("deterministic task bug")


def plain_fn(seed=0):
    return "resolved-by-path"


# ----------------------------------------------------------------------
# RunSpec hashing
# ----------------------------------------------------------------------
class TestRunSpec:
    def test_same_kwargs_same_key(self):
        a = RunSpec("r", {"x": 1, "y": [1, 2]}, seed=7)
        b = RunSpec("r", {"y": [1, 2], "x": 1}, seed=7)
        assert a.key == b.key

    def test_tuple_and_list_kwargs_hash_identically(self):
        a = RunSpec("r", {"sizes": (128, 256)}, seed=1)
        b = RunSpec("r", {"sizes": [128, 256]}, seed=1)
        assert a.key == b.key
        assert a.kwargs["sizes"] == [128, 256]  # normalised form

    def test_changed_seed_changes_key(self):
        assert RunSpec("r", {"x": 1}, seed=1).key != RunSpec("r", {"x": 1}, seed=2).key

    def test_changed_runner_or_kwargs_changes_key(self):
        base = RunSpec("r", {"x": 1}, seed=1)
        assert base.key != RunSpec("other", {"x": 1}, seed=1).key
        assert base.key != RunSpec("r", {"x": 2}, seed=1).key

    def test_key_is_stable_across_processes(self):
        # sha256 of canonical JSON: no per-process hash randomisation
        spec = RunSpec("test.echo", {"value": "v"}, seed=3)
        assert spec.key == RunSpec("test.echo", {"value": "v"}, seed=3).key
        assert len(spec.key) == 64 and spec.short_key == spec.key[:12]

    def test_seed_in_kwargs_rejected(self):
        with pytest.raises(ValueError):
            RunSpec("r", {"seed": 1})

    def test_unserialisable_kwargs_rejected(self):
        with pytest.raises(TypeError):
            RunSpec("r", {"obj": object()})

    def test_resolve_registered_and_dotted(self):
        assert resolve_runner("test.echo") is echo_task
        assert resolve_runner("tests.test_farm:plain_fn") is plain_fn
        with pytest.raises(KeyError):
            resolve_runner("nope.not.registered")

    def test_a_task_module_that_fails_to_import_is_not_hidden(self, monkeypatch):
        monkeypatch.setattr(
            "repro.farm.spec._DEFAULT_TASK_MODULES", ("repro.analysis.no_such_tasks",)
        )
        with pytest.raises(ModuleNotFoundError):
            resolve_runner("nope.not.registered")

    def test_execute_passes_seed_and_kwargs(self):
        spec = RunSpec("test.echo", {"value": 5}, seed=9)
        assert spec.execute() == {"value": 5, "seed": 9}


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = RunSpec("test.echo", {"value": 1}, seed=0)
        assert cache.get(spec) == (False, None)
        cache.put(spec, {"value": 1, "seed": 0})
        hit, value = cache.get(spec)
        assert hit and value == {"value": 1, "seed": 0}
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
        assert cache.hit_rate == 0.5

    def test_corrupt_file_recovers_as_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = RunSpec("test.echo", {"value": 2}, seed=0)
        cache.put(spec, "good")
        path = cache.path_for(spec.key)
        path.write_text("{ not json !!!")
        hit, _ = cache.get(spec)
        assert not hit
        assert cache.corrupt == 1
        assert not path.exists()  # the bad entry was removed
        cache.put(spec, "good-again")
        assert cache.get(spec) == (True, "good-again")

    def test_mismatched_key_treated_as_corrupt(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = RunSpec("test.echo", {"value": 3}, seed=0)
        path = cache.path_for(spec.key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"key": "somebody-else", "value": 1}))
        assert cache.get(spec) == (False, None)
        assert cache.corrupt == 1

    def test_entry_from_other_sources_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = RunSpec("test.echo", {"value": 6}, seed=0)
        cache.put(spec, "stale")
        path = cache.path_for(spec.key)
        payload = json.loads(path.read_text())
        assert payload["source"] == source_fingerprint()
        payload["source"] = "0" * 64  # stored by another tree
        path.write_text(json.dumps(payload))
        assert cache.get(spec) == (False, None)
        assert cache.misses == 1 and not path.exists()
        cache.put(spec, "fresh")
        assert cache.get(spec) == (True, "fresh")

    def test_disabled_cache_never_hits(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=False)
        spec = RunSpec("test.echo", {"value": 4}, seed=0)
        cache.put(spec, "x")
        assert cache.get(spec) == (False, None)
        assert cache.hits == cache.misses == cache.stores == 0

    def test_unwritable_root_degrades_with_warning(self):
        cache = ResultCache(root="/proc/definitely-not-writable")
        spec = RunSpec("test.echo", {"value": 5}, seed=0)
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.put(spec, "x")
        cache.put(spec, "x")  # warning fires only once
        assert cache.write_errors == 2 and cache.stores == 0
        assert cache.get(spec) == (False, None)  # still usable as a miss

    def test_stats_shape(self, tmp_path):
        stats = ResultCache(root=tmp_path).stats()
        assert {"hits", "misses", "stores", "corrupt", "write_errors",
                "hit_rate"} <= set(stats)


# ----------------------------------------------------------------------
# FarmExecutor
# ----------------------------------------------------------------------
class TestFarmExecutor:
    def test_inline_execution(self):
        farm = FarmExecutor(jobs=1)
        specs = [RunSpec("test.echo", {"value": i}, seed=i) for i in range(3)]
        results = farm.run(specs)
        assert results == {
            s.key: {"value": i, "seed": i} for i, s in enumerate(specs)
        }
        assert farm.progress.done == 3 and farm.progress.failed == 0

    def test_parallel_matches_inline(self):
        specs = [RunSpec("test.echo", {"value": i}, seed=i) for i in range(5)]
        inline = FarmExecutor(jobs=1).run(specs)
        parallel = FarmExecutor(jobs=3).run(specs)
        assert inline == parallel

    def test_duplicate_specs_execute_once(self):
        farm = FarmExecutor(jobs=1)
        spec = RunSpec("test.echo", {"value": 1}, seed=0)
        results = farm.run([spec, RunSpec("test.echo", {"value": 1}, seed=0)])
        assert len(results) == 1
        assert farm.progress.queued == 1

    def test_duplicates_are_found_without_rehashing(self, monkeypatch):
        """Each spec's key is hashed once and a duplicate is found in a
        set, not by re-hashing every spec queued before it (quadratic:
        the 320 specs of advbench took about a second to queue)."""
        specs = [
            RunSpec("test.echo", {"value": i % 8}, seed=0) for i in range(40)
        ]
        hashed = []
        canonical = RunSpec.canonical

        def counted(spec):
            hashed.append(spec)
            return canonical(spec)

        monkeypatch.setattr(RunSpec, "canonical", counted)
        farm = FarmExecutor(jobs=1)
        results = farm.run(specs)
        assert len(hashed) == len(specs)
        assert results == {
            spec.key: {"value": i, "seed": 0} for i, spec in enumerate(specs[:8])
        }
        assert farm.progress.queued == farm.progress.executed == 8

    def test_cache_hits_skip_execution(self, tmp_path):
        specs = [RunSpec("test.echo", {"value": i}, seed=i) for i in range(3)]
        first = FarmExecutor(jobs=1, cache=ResultCache(root=tmp_path))
        warm = first.run(specs)
        assert first.cache.misses == 3 and first.cache.stores == 3

        second = FarmExecutor(jobs=1, cache=ResultCache(root=tmp_path))
        cached = second.run(specs)
        assert cached == warm
        assert second.cache.hits == 3 and second.cache.hit_rate == 1.0
        assert second.progress.cache_hits == 3
        assert second.progress.executed == 0

    def test_worker_crash_is_retried(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        farm = FarmExecutor(jobs=2, retries=2)
        spec = RunSpec("test.crash_once", {"flag_path": flag}, seed=0)
        results = farm.run([spec])
        assert results[spec.key] == "survived"
        assert farm.progress.retried >= 1
        assert farm.progress.done == 1

    def test_worker_crash_retry_is_bounded(self):
        farm = FarmExecutor(jobs=2, retries=1)
        spec = RunSpec("test.crash_always", {}, seed=0)
        with pytest.raises(FarmTaskError) as excinfo:
            farm.run([spec])
        assert excinfo.value.attempts == 2  # initial + one retry
        assert "crashed" in str(excinfo.value)

    def test_timeout_in_pool(self):
        farm = FarmExecutor(jobs=2, timeout=0.2, retries=0)
        spec = RunSpec("test.sleepy", {"duration": 10.0}, seed=0)
        start = time.perf_counter()
        with pytest.raises(FarmTaskError) as excinfo:
            farm.run([spec])
        assert time.perf_counter() - start < 5.0  # did not sleep 10s
        assert "timed out" in str(excinfo.value)

    def test_timeout_inline(self):
        farm = FarmExecutor(jobs=1, timeout=0.2)
        spec = RunSpec("test.sleepy", {"duration": 10.0}, seed=0)
        with pytest.raises(FarmTaskError, match="timed out"):
            farm.run([spec])

    def test_deterministic_task_error_not_retried(self):
        farm = FarmExecutor(jobs=2, retries=5)
        spec = RunSpec("test.buggy", {}, seed=0)
        with pytest.raises(FarmTaskError) as excinfo:
            farm.run([spec])
        assert excinfo.value.attempts == 1
        assert farm.progress.retried == 0

    def test_results_keyed_by_spec_hash(self):
        farm = FarmExecutor(jobs=1)
        spec = RunSpec("test.echo", {"value": "k"}, seed=0)
        results = farm.run([spec])
        assert set(results) == {spec.key}


# ----------------------------------------------------------------------
# progress / telemetry
# ----------------------------------------------------------------------
class TestFarmProgress:
    def test_counters_and_bus_records(self):
        progress = FarmProgress(bus=TraceBus(retain=True))
        farm = FarmExecutor(jobs=1, progress=progress)
        specs = [RunSpec("test.echo", {"value": i}, seed=i) for i in range(2)]
        farm.run(specs)
        assert progress.queued == 2
        assert progress.done == 2
        assert progress.running == 0
        assert progress.bus.count("farm.task.queued") == 2
        assert progress.bus.count("farm.task.started") == 2
        assert progress.bus.count("farm.task.done") == 2
        assert progress.bus.count("farm.summary") == 1
        assert len(progress.wall_times) == 2
        assert progress.total_task_wall >= 0.0

    def test_snapshot_shape(self):
        snap = FarmProgress().snapshot()
        assert {"queued", "running", "done", "failed", "retried",
                "cache_hits", "executed"} <= set(snap)

    def test_render_farm_summary(self, tmp_path):
        from repro.analysis.report import render_farm_summary

        cache = ResultCache(root=tmp_path)
        farm = FarmExecutor(jobs=1, cache=cache)
        farm.run([RunSpec("test.echo", {"value": 1}, seed=0)])
        text = render_farm_summary(farm.progress, cache=cache)
        assert "tasks=1" in text and "cache" in text


# ----------------------------------------------------------------------
# serial vs parallel equivalence on a real figure runner
# ----------------------------------------------------------------------
class TestFigureEquivalence:
    SCENARIOS = ("linespeed", "dup3")

    def test_fig7_parallel_is_bit_identical_to_serial(self):
        plan = fig7_plan(scenarios=self.SCENARIOS, count=5, sequences=2, seed=3)
        serial = plan.run()
        parallel = plan.run(FarmExecutor(jobs=2))
        assert parallel.to_dict() == serial.to_dict()

    def test_fig7_cached_rerun_is_identical_and_all_hits(self, tmp_path):
        plan = fig7_plan(scenarios=self.SCENARIOS, count=5, sequences=2, seed=3)
        first = FarmExecutor(jobs=1, cache=ResultCache(root=tmp_path))
        warm = plan.run(first)
        n_specs = len(plan.expand())
        assert first.cache.misses == n_specs

        second = FarmExecutor(jobs=1, cache=ResultCache(root=tmp_path))
        cached = plan.run(second)
        assert cached.to_dict() == warm.to_dict()
        assert second.cache.hits == n_specs
        assert second.cache.hit_rate == 1.0
        assert second.progress.executed == 0


class TestChaosDeterminism:
    """The same chaos schedule sharded over 4 workers must yield the
    byte-identical RunReport a serial run produces."""

    def _battery(self):
        from repro.chaos.schedule import builtin_battery

        battery = builtin_battery()
        return [
            battery["crash_restart"].to_dict(),
            battery["link_flap"].to_dict(),
            battery["loss_burst"].to_dict(),
        ]

    def _report_bytes(self, tmp_path, tag, jobs):
        from repro.obs.report import RunReport

        records = chaos_plan(
            schedules=self._battery(), duration=0.03, seeds=(1, 2)
        ).run(FarmExecutor(jobs=jobs))
        path = tmp_path / f"chaos-{tag}.json"
        # records only: farm progress snapshots carry wall-clock times
        RunReport(name="chaos", records=records).save(str(path))
        return path.read_bytes()

    def test_chaos_battery_serial_vs_jobs4_byte_identical(self, tmp_path):
        serial = self._report_bytes(tmp_path, "serial", jobs=1)
        parallel = self._report_bytes(tmp_path, "jobs4", jobs=4)
        assert serial == parallel
