"""Cross-layer trace correlation: one packet's story across data plane,
voter, control plane and fault windows — plus the ``obs trace`` CLI,
``obs diff --quiet`` and per-shard profiling."""

import pytest

from repro.analysis.cli import main
from repro.obs.report import RunReport
from repro.obs.spans import cross_layer_story
from repro.obs.summary import (
    run_instrumented_ctrl_scenario,
    run_instrumented_scenario,
)
from repro.sim.trace import TraceRecord


@pytest.fixture(scope="module")
def data_run():
    return run_instrumented_scenario("central3", duration=0.002, seed=1)


@pytest.fixture(scope="module")
def ctrl_run():
    return run_instrumented_ctrl_scenario(
        variant="central3", ctrl_k=3, adversary="none", duration=0.005, seed=1
    )


@pytest.fixture(scope="module")
def lying_run():
    return run_instrumented_ctrl_scenario(
        variant="central3", ctrl_k=3, adversary="lying", duration=0.005, seed=1
    )


# ----------------------------------------------------------------------
# story assembly
# ----------------------------------------------------------------------
class TestDataPlaneStory:
    def test_marked_packets_have_trajectories(self, data_run):
        tracer = data_run.tracer
        assert tracer.marked > 0
        ids = tracer.trace_ids()
        assert ids, "full-sampling run should index trajectories"

    def test_story_interleaves_data_and_voter(self, data_run):
        tracer = data_run.tracer
        tid = tracer.trace_ids()[1]
        story = cross_layer_story(tracer.trajectory(tid))
        layers = {entry["layer"] for entry in story}
        assert "data" in layers
        assert "voter" in layers  # central3 votes every forwarded packet
        times = [entry["time"] for entry in story]
        assert times == sorted(times)

    def test_story_reduces_packets_to_summaries(self, data_run):
        tracer = data_run.tracer
        tid = tracer.trace_ids()[0]
        story = cross_layer_story(tracer.trajectory(tid))
        for entry in story:
            packet = entry["data"].get("packet")
            if packet is not None:
                assert isinstance(packet, str)


class TestCtrlStory:
    def test_ctrl_vote_spans_carry_trace(self, ctrl_run):
        tracer = ctrl_run.tracer
        votes = [
            r
            for spans in tracer.trajectories().values()
            for r in spans
            if r.topic == "ctrl.vote"
        ]
        assert votes, "primer flows should trigger votable FlowMods"
        assert all("trace" in r.data for r in votes)

    def test_story_spans_three_layers(self, ctrl_run):
        tracer = ctrl_run.tracer
        best = max(
            tracer.trace_ids(),
            key=lambda tid: len(
                {r.topic.split(".")[0] for r in tracer.trajectory(tid)}
            ),
        )
        story = cross_layer_story(tracer.trajectory(best))
        layers = {entry["layer"] for entry in story}
        assert {"data", "voter", "control"} <= layers


class TestFaultWindowCorrelation:
    def test_chaos_records_woven_in_by_time(self, lying_run):
        chaos_records = lying_run.testbed.network.trace.select(topic="chaos.*")
        assert chaos_records, "lying adversary schedule should fire"
        tracer = lying_run.tracer
        tid = tracer.trace_ids()[-1]
        # the compromise fires at t=0.01, after these short flows end: a
        # zero-slack story excludes it, a slack covering the gap weaves
        # it in — both directions of the time-window correlation
        tight = cross_layer_story(
            tracer.trajectory(tid), chaos_records=chaos_records
        )
        assert all(entry["layer"] != "fault" for entry in tight)
        slack = cross_layer_story(
            tracer.trajectory(tid), chaos_records=chaos_records,
            window_slack=0.02,
        )
        faults = [e for e in slack if e["layer"] == "fault"]
        assert faults
        assert faults[0]["topic"].startswith("chaos.")

    def test_window_overlap_logic(self):
        spans = [
            TraceRecord(time=1.0, topic="span.hop", source="s1", data={}),
            TraceRecord(time=2.0, topic="span.hop", source="s2", data={}),
        ]
        inside = TraceRecord(
            time=0.5, topic="chaos.lying", source="chaos",
            data={"target": "s1", "until": 1.5},
        )
        before = TraceRecord(
            time=0.1, topic="chaos.crash", source="chaos",
            data={"target": "s2", "restart_at": 0.2},
        )
        story = cross_layer_story(spans, chaos_records=[inside, before])
        faults = [e for e in story if e["layer"] == "fault"]
        assert [f["topic"] for f in faults] == ["chaos.lying"]

    def test_instant_fault_needs_overlap(self):
        spans = [TraceRecord(time=1.0, topic="span.hop", source="s1", data={})]
        instant = TraceRecord(
            time=5.0, topic="chaos.drop", source="chaos", data={"target": "s1"}
        )
        assert all(
            e["layer"] != "fault"
            for e in cross_layer_story(spans, chaos_records=[instant])
        )
        slack = cross_layer_story(
            spans, chaos_records=[instant], window_slack=10.0
        )
        assert any(e["layer"] == "fault" for e in slack)


# ----------------------------------------------------------------------
# obs trace CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    def test_list_ids(self, capsys):
        assert main(["obs", "trace", "--list", "--duration", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "trace ids:" in out

    def test_story_printed(self, capsys):
        assert main(["obs", "trace", "2", "--duration", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "trace 2:" in out
        assert "[   data]" in out

    def test_missing_id_exits_1(self, capsys):
        assert main(["obs", "trace", "999999", "--duration", "0.001"]) == 1
        assert "no trajectory" in capsys.readouterr().err


# ----------------------------------------------------------------------
# obs diff --quiet (exit code + one-line summary survive)
# ----------------------------------------------------------------------
class TestDiffQuiet:
    def _reports(self, tmp_path, drops):
        base = tmp_path / "base.json"
        new = tmp_path / "new.json"
        RunReport(
            name="a", metrics={'link_queue_drops_total{link="x"}': 0.0}
        ).save(base)
        RunReport(
            name="b", metrics={'link_queue_drops_total{link="x"}': drops}
        ).save(new)
        return str(base), str(new)

    def test_quiet_keeps_verdict_and_exit_code(self, tmp_path, capsys):
        base, new = self._reports(tmp_path, 500.0)
        assert main(["obs", "diff", base, new, "--quiet"]) == 1
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 1  # per-finding lines suppressed
        assert "BREACHED" in lines[0]

    def test_quiet_clean_diff_exits_0(self, tmp_path, capsys):
        base, new = self._reports(tmp_path, 0.0)
        assert main(["obs", "diff", base, new, "-q"]) == 0
        assert "within thresholds" in capsys.readouterr().out


# ----------------------------------------------------------------------
# per-shard profiling
# ----------------------------------------------------------------------
class TestProfiling:
    def test_run_profiled_dumps_and_aggregates(self, tmp_path):
        from repro.farm.profiling import (
            aggregate_profiles,
            collect_profiles,
            profile_path,
            run_profiled,
        )
        from repro.farm.spec import RunSpec

        spec = RunSpec("prof.echo", {"value": 1}, seed=1)
        result = run_profiled(
            lambda: sum(range(1000)), spec, attempt=1, profile_dir=str(tmp_path)
        )
        assert result == sum(range(1000))
        dumps = collect_profiles(str(tmp_path))
        assert dumps == [profile_path(str(tmp_path), spec, attempt=1)]
        aggregated = aggregate_profiles(str(tmp_path), top=5)
        assert aggregated is not None
        count, table = aggregated
        assert count == 1
        assert "cumulative" in table

    def test_dump_written_even_on_task_failure(self, tmp_path):
        from repro.farm.profiling import collect_profiles, run_profiled
        from repro.farm.spec import RunSpec

        spec = RunSpec("prof.boom", {}, seed=1)

        def boom():
            raise ValueError("task bug")

        with pytest.raises(ValueError):
            run_profiled(boom, spec, attempt=1, profile_dir=str(tmp_path))
        assert collect_profiles(str(tmp_path))
