"""Live dashboard: FleetState snapshots, HTTP endpoints, the watch CLI."""

import json
import urllib.error
import urllib.request

import pytest

from repro.analysis.cli import main
from repro.farm import FarmExecutor, FarmProgress, ResultCache, RunSpec, register_runner
from repro.obs.dashboard import DashboardServer
from repro.obs.events import EventLogWriter, FarmEventLogger
from repro.obs.fleet import FleetState
from repro.obs.metrics import MetricsRegistry, use_registry


@register_runner("dash.echo")
def dash_echo_task(value, seed=0):
    return {"value": value}


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.headers.get("Content-Type", ""), response.read().decode("utf-8")


def _run_small_farm(cache=None, jobs=1, specs=None):
    progress = FarmProgress()
    fleet = FleetState(progress, cache=cache, jobs=jobs, name="unit")
    executor = FarmExecutor(jobs=jobs, cache=cache, progress=progress)
    if specs is None:
        specs = [RunSpec("dash.echo", {"value": i}, seed=i) for i in range(3)]
    executor.run(specs)
    return fleet


# ----------------------------------------------------------------------
# FleetState
# ----------------------------------------------------------------------
class TestFleetState:
    def test_snapshot_after_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fleet = _run_small_farm(cache=cache)
        snap = fleet.snapshot()
        assert snap["finished"] is True
        assert snap["progress"]["done"] == 3
        assert snap["progress"]["executed"] == 3
        assert snap["per_runner"]["dash.echo"]["done"] == 3
        assert snap["in_flight"] == []
        assert snap["ewma_task_wall_s"] is not None
        assert snap["eta_s"] is None  # queue drained
        assert snap["cache"]["misses"] == 3
        fleet.detach()

    def test_snapshot_is_json_serialisable(self):
        fleet = _run_small_farm()
        json.dumps(fleet.snapshot())  # must not raise
        fleet.detach()

    def test_recent_events_pagination(self):
        fleet = _run_small_farm()
        events = fleet.recent_events()
        assert events, "run should have produced bus records"
        last = events[-1]["seq"]
        assert fleet.recent_events(after=last) == []
        tail = fleet.recent_events(after=last - 2)
        assert [e["seq"] for e in tail] == [last - 1, last]
        fleet.detach()

    def test_in_flight_visible_mid_run(self):
        progress = FarmProgress()
        fleet = FleetState(progress, jobs=2, name="midrun")
        spec = RunSpec("dash.echo", {"value": 1}, seed=1)
        progress.task_queued(spec)
        progress.task_started(spec, attempt=2)
        snap = fleet.snapshot()
        assert len(snap["in_flight"]) == 1
        assert snap["in_flight"][0]["attempt"] == 2
        progress.task_done(spec, wall_time=0.5)
        assert fleet.snapshot()["in_flight"] == []
        fleet.detach()

    def test_eta_uses_ewma_and_jobs(self):
        progress = FarmProgress()
        fleet = FleetState(progress, jobs=2, name="eta")
        specs = [RunSpec("dash.echo", {"value": i}, seed=i) for i in range(5)]
        for spec in specs:
            progress.task_queued(spec)
        progress.task_started(specs[0], attempt=1)
        progress.task_done(specs[0], wall_time=1.0)
        # 4 remaining, ewma 1.0s, 2 jobs -> ~2s
        assert fleet.eta_seconds() == pytest.approx(2.0)
        fleet.detach()


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

            status, ctype, body = _get(base + "/fleet")
            assert status == 200 and ctype.startswith("application/json")
            snap = json.loads(body)
            assert snap["progress"]["done"] == 3
            assert snap["finished"] is True

            status, _, body = _get(base + "/events?after=0")
            assert status == 200
            events = json.loads(body)
            assert any(e["topic"] == "farm.summary" for e in events)

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/nope")
            assert excinfo.value.code == 404
        fleet.detach()

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
        fleet.detach()


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
        fleet.detach()

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
