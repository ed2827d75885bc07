"""Live dashboard: fleet snapshots, HTTP endpoints, the watch CLI."""

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis.cli import main
from repro.farm.cache import ResultCache
from repro.farm.executor import FarmExecutor
from repro.farm.progress import FarmProgress
from repro.farm.spec import RunSpec, register_runner
from repro.obs.dashboard import DashboardServer
from repro.obs.events import EventLogWriter, FarmEventLogger
from repro.obs.fleet import fleet_snapshot
from repro.obs.fleet_cli import _events_snapshot
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.wiring import FleetTelemetry
from repro.plan.builtin import builtin_plan


@register_runner("dash.echo")
def dash_echo_task(value, seed=0):
    return {"value": value}


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.headers.get("Content-Type", ""), response.read().decode("utf-8")


def _run_small_farm(cache=None, jobs=1, specs=None):
    """One finished battery; returns its ``/fleet`` callable."""
    farm = FarmExecutor(jobs=jobs, cache=cache)
    if specs is None:
        specs = [RunSpec("dash.echo", {"value": i}, seed=i) for i in range(3)]
    farm.run(specs)
    return lambda: fleet_snapshot(farm.progress, farm.cache, farm.jobs, "unit")


# ----------------------------------------------------------------------
# the fleet snapshot
# ----------------------------------------------------------------------
class TestFleetState:
    def test_snapshot_after_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        snap = _run_small_farm(cache=cache)()
        assert snap["finished"] is True
        assert snap["progress"]["done"] == 3
        assert snap["progress"]["executed"] == 3
        assert snap["per_runner"]["dash.echo"]["done"] == 3
        assert snap["in_flight"] == []
        assert snap["ewma_task_wall_s"] is not None
        assert snap["eta_s"] is None  # queue drained
        assert snap["cache"]["misses"] == 3

    def test_snapshot_is_json_serialisable(self):
        json.dumps(_run_small_farm()())  # must not raise

    def test_in_flight_visible_mid_run(self):
        progress = FarmProgress()
        spec = RunSpec("dash.echo", {"value": 1}, seed=1)
        progress.task_queued(spec)
        progress.task_started(spec, attempt=2)
        snap = fleet_snapshot(progress, jobs=2, name="midrun")
        assert len(snap["in_flight"]) == 1
        assert snap["in_flight"][0]["attempt"] == 2
        assert snap["finished"] is False
        progress.task_done(spec, wall_time=0.5)
        assert fleet_snapshot(progress, jobs=2)["in_flight"] == []

    def test_eta_uses_ewma_and_jobs(self):
        progress = FarmProgress()
        specs = [RunSpec("dash.echo", {"value": i}, seed=i) for i in range(5)]
        for spec in specs:
            progress.task_queued(spec)
        progress.task_started(specs[0], attempt=1)
        progress.task_done(specs[0], wall_time=1.0)
        # 4 remaining, ewma 1.0s, 2 jobs -> ~2s
        assert fleet_snapshot(progress, jobs=2)["eta_s"] == pytest.approx(2.0)
        # a log folded mid-run knows no job count yet: no estimate
        assert fleet_snapshot(progress)["eta_s"] is None

    def test_snapshots_taken_while_folding_are_consistent(self):
        """The dashboard thread reads while the farm thread folds: every
        snapshot sees whole events (in flight == running, the per-runner
        tallies sum to the counters)."""
        progress = FarmProgress()
        specs = [RunSpec("dash.echo", {"value": i}, seed=i) for i in range(300)]
        seen, errors = [], []

        def fold():
            for spec in specs:
                progress.task_queued(spec)
                progress.task_started(spec, attempt=1)
                progress.task_done(spec, wall_time=0.001)

        def read():
            while folder.is_alive():
                try:
                    seen.append(fleet_snapshot(progress, jobs=2))
                except Exception as exc:  # a torn read: report, then stop
                    errors.append(exc)
                    return

        folder = threading.Thread(target=fold)
        readers = [threading.Thread(target=read) for _ in range(3)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            folder.start()
            for reader in readers:
                reader.start()
            folder.join(timeout=30)
            for reader in readers:
                reader.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not folder.is_alive()
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert progress.done == 300
        for snap in seen:
            counts = snap["progress"]
            assert len(snap["in_flight"]) == counts["running"]
            tallies = snap["per_runner"].get("dash.echo", {"queued": 0, "done": 0})
            assert (tallies["queued"], tallies["done"]) == (counts["queued"], counts["done"])


# ----------------------------------------------------------------------
# DashboardServer endpoints
# ----------------------------------------------------------------------
class TestDashboardServer:
    def test_endpoints(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            cache = ResultCache(tmp_path / "cache")
        fleet = _run_small_farm(cache=cache)
        with DashboardServer(fleet=fleet, registry=registry) as server:
            base = server.url
            status, ctype, body = _get(base + "/")
            assert status == 200 and "/metrics" in body

            status, ctype, body = _get(base + "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert "cache_misses_total 3" in body
            assert "cache_hits_total 0" in body

            status, ctype, body = _get(base + "/fleet")
            assert status == 200 and ctype.startswith("application/json")
            snap = json.loads(body)
            assert snap["progress"]["done"] == 3
            assert snap["finished"] is True

            for gone in ("/events?after=0", "/nope"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(base + gone)
                assert excinfo.value.code == 404

    def test_fleet_503_when_unattached(self):
        with DashboardServer() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/fleet")
            assert excinfo.value.code == 503

    def test_ephemeral_port_and_repoint(self):
        server = DashboardServer()
        port = server.start()
        assert port > 0
        assert server.url == f"http://127.0.0.1:{port}"
        # re-pointing at a new battery must not rebind the socket
        fleet = _run_small_farm()
        server.fleet = fleet
        status, _, body = _get(server.url + "/fleet")
        assert status == 200
        assert json.loads(body)["progress"]["done"] == 3
        server.stop()


# ----------------------------------------------------------------------
# the fleet CLI: watch / replay
# ----------------------------------------------------------------------
def _logged_farm_run(tmp_path, name="cli"):
    path = str(tmp_path / f"{name}.jsonl")
    progress = FarmProgress()
    writer = EventLogWriter(path, name=name)
    logger = FarmEventLogger(writer, progress)
    executor = FarmExecutor(jobs=1, progress=progress)
    executor.run([RunSpec("dash.echo", {"value": i}, seed=i) for i in range(3)])
    logger.detach()
    writer.close()
    return path


class TestFleetCli:
    def test_watch_once_from_events(self, tmp_path, capsys):
        path = _logged_farm_run(tmp_path)
        assert main(["fleet", "watch", "--events", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "[finished]" in out
        assert "tasks: 3/3 done" in out
        assert "\x1b[" not in out  # --once never emits ANSI control codes

    def test_watch_once_from_url(self, tmp_path, capsys):
        fleet = _run_small_farm()
        with DashboardServer(fleet=fleet) as server:
            assert main(["fleet", "watch", "--url", server.url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "tasks: 3/3 done" in out

    def test_watch_unreachable_source_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["fleet", "watch", "--events", missing, "--once"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_replay_check_ok(self, tmp_path, capsys):
        path = _logged_farm_run(tmp_path)
        assert main(["fleet", "replay", path, "--check"]) == 0
        assert "replay ok" in capsys.readouterr().out

    def test_replay_check_flags_truncation(self, tmp_path, capsys):
        path = _logged_farm_run(tmp_path)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        truncated = str(tmp_path / "truncated.jsonl")
        with open(truncated, "w", encoding="utf-8") as fh:
            fh.writelines(lines[: len(lines) // 2])
        assert main(["fleet", "replay", truncated]) == 0  # report-only
        assert main(["fleet", "replay", truncated, "--check"]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_profile_empty_dir_exits_1(self, tmp_path, capsys):
        assert main(["fleet", "profile", str(tmp_path)]) == 1
        assert "no profile dumps" in capsys.readouterr().err


# ----------------------------------------------------------------------
# one fold: the dashboard and the log tell the same story
# ----------------------------------------------------------------------
def _without_clocks(snap):
    """A snapshot minus what only the live run has: the cache object's
    ``stats()`` and wall-clock times."""
    snap = json.loads(json.dumps(snap))
    del snap["cache"]
    for entry in snap["alarm_feed"]:
        entry.pop("time", None)
    for entry in snap["in_flight"]:
        entry.pop("since", None)
    return snap


class TestOneFold:
    def test_dashboard_and_log_views_agree(self, tmp_path):
        """Two batteries through one telemetry bundle: ``/fleet`` and the
        picture ``fleet watch --events`` folds from the log agree on the
        last battery, digest feed and per-runner tallies included."""
        path = str(tmp_path / "two.jsonl")
        byzantine = [
            spec for spec in builtin_plan("chaos", quick=True).expand()
            if spec.kwargs["schedule"]["name"] == "midrun_byzantine"
        ]
        batteries = [
            [RunSpec("dash.echo", {"value": i}, seed=i) for i in range(2)],
            [RunSpec("dash.echo", {"value": 7}, seed=7)] + byzantine,
        ]
        telemetry = FleetTelemetry(events_log=path, serve=0, name="two")
        try:
            for specs in batteries:
                with telemetry.farm_registry():
                    farm = FarmExecutor(jobs=1, cache=ResultCache(tmp_path / "cache"))
                telemetry.attach(farm)
                farm.run(specs)
            _, _, body = _get(telemetry.server.url + "/fleet")
        finally:
            telemetry.close()
        live = json.loads(body)
        logged = _events_snapshot(path)

        assert live["progress"]["queued"] == 2
        assert live["alarm_feed"], "the byzantine run should leave a digest"
        assert live["cache"]["misses"] == 2 and logged["cache"] is None
        assert _without_clocks(logged) == _without_clocks(live)
