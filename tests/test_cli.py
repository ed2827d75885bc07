"""Tests for the ``python -m repro`` command tree."""

import argparse
import json
import os
import sys
import time

import pytest

from repro.analysis.cli import build_parser, main
from repro.plan.mergers import get_merger

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_PLAN = os.path.join(REPO_ROOT, "examples", "plans", "smoke.json")

#: every leaf of the one tree, as the argv prefix that reaches it
COMMAND_PATHS = [
    ("table1",), ("fig4",), ("fig5",), ("fig6",), ("fig7",), ("fig8",),
    ("advbench",), ("chaos",), ("ctrlbft",),
    ("casestudy",), ("virtualized",), ("all",),
    ("plan", "list"), ("plan", "validate"), ("plan", "run"),
    ("obs", "summary"), ("obs", "dump"), ("obs", "diff"), ("obs", "trace"),
    ("fleet", "watch"), ("fleet", "replay"), ("fleet", "profile"),
    ("live", "demo"),
]


def _leaves(parser, prefix=()):
    """Walk the argparse tree: the argv prefix of every leaf subcommand."""
    subparsers = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield prefix
        return
    for name, child in subparsers[0].choices.items():
        yield from _leaves(child, prefix + (name,))


def _record_lines(out, name):
    return [line for line in out.splitlines()
            if line and not line.startswith(("[farm]", f"[{name} finished"))]


class TestCli:
    def test_casestudy_command(self, capsys):
        assert main(["casestudy"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "attack" in out and "protected" in out
        assert "20" in out  # the doubled requests

    def test_virtualized_command(self, capsys):
        assert main(["virtualized"]) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out and "PREVENTED" in out

    def test_casestudy_parallel_output_matches_serial(self, capsys):
        assert main(["casestudy", "--no-cache", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(["casestudy", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert _record_lines(parallel, "casestudy") == _record_lines(
            serial, "casestudy")
        # the table the hand-written command printed, byte for byte
        assert _record_lines(serial, "casestudy") == [
            "Section VI case study",
            "  scenario   sent  req@fw1  resp@vm1  strays",
            "  ---------  ----  -------  --------  ------",
            "  baseline   10    10       10        0     ",
            "  attack     10    20       0         10    ",
            "  protected  10    10       10        0     ",
        ]

    def test_casestudy_and_virtualized_records_reach_the_report(
            self, capsys, tmp_path):
        for name, count in (("casestudy", 3), ("virtualized", 2)):
            report = tmp_path / f"{name}.json"
            assert main([name, "--no-cache", "--report", str(report)]) == 0
            records = json.loads(report.read_text())["records"]
            assert len(records) == count
        assert [r["variant"] for r in records] == ["virtual2", "virtual3"]

    def test_fig7_quick(self, capsys):
        assert main(["fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "linespeed" in out and "central5" in out
        assert "paper" in out

    def test_fig6_quick(self, capsys):
        assert main(["fig6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out and "loss" in out

    def test_fig7_parallel_output_matches_serial(self, capsys, tmp_path):
        args = ["fig7", "--quick", "--cache-dir", str(tmp_path / "c")]
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(args + ["--jobs", "1", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert _record_lines(parallel, "fig7") == _record_lines(serial, "fig7")

    def test_fig7_cached_rerun_reports_full_hits(self, capsys, tmp_path):
        args = ["fig7", "--quick", "--cache-dir", str(tmp_path / "c")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0% hits" in first or "miss" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "(100% hits)" in second
        # the cached record is the same record
        assert [l for l in first.splitlines() if "rtt_ms" in l] == [
            l for l in second.splitlines() if "rtt_ms" in l
        ]

    def test_no_cache_flag_disables_cache_dir(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        assert main(["fig7", "--quick", "--no-cache",
                     "--cache-dir", str(cache_dir)]) == 0
        assert not cache_dir.exists()
        out = capsys.readouterr().out
        assert "[farm]" in out and "[farm] cache" not in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_all_known_commands_registered(self):
        assert sorted(_leaves(build_parser())) == sorted(COMMAND_PATHS)


class TestOneTree:
    @pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
    def test_every_subcommand_answers_help(self, path, capsys):
        # building the tree is what catches a flag declared twice
        with pytest.raises(SystemExit) as excinfo:
            main([*path, "--help"])
        assert excinfo.value.code == 0
        assert " ".join(path) in capsys.readouterr().out

    def test_top_level_help_names_every_group(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for group in ("plan", "obs", "fleet", "live"):
            assert f" {group} " in out

    @pytest.mark.parametrize("name", ["fig6", "fig7", "fig8"])
    def test_alias_is_plan_run(self, name, capsys, tmp_path):
        flags = ["--quick", "--no-cache", "--report"]
        assert main([name, *flags, str(tmp_path / "alias.json")]) == 0
        alias = capsys.readouterr()
        assert main(["plan", "run", name, *flags,
                     str(tmp_path / "plan.json")]) == 0
        plan = capsys.readouterr()
        assert "[farm]" in alias.out and "[farm]" not in plan.out
        assert "[farm]" in plan.err
        alias_lines = [line for line in _record_lines(alias.out, name)
                       if not line.startswith("[run report written")]
        assert alias_lines == plan.out.splitlines()
        reports = [json.loads((tmp_path / f).read_text())
                   for f in ("alias.json", "plan.json")]
        assert reports[0]["records"] and (
            reports[0]["records"] == reports[1]["records"])


class TestRendererPins:
    """The three line formats CI greps, on canned merged values; the
    expected lines are the parent commit's ``--quick`` output."""

    def test_chaos_lines(self):
        injection = {"kind": "router_crash", "target": "r1", "time": 0.01}
        base = {"seed": 1, "sent": 69, "received": 69, "loss_rate": 0.0}
        merged = [
            {**base, "schedule": "crash_restart",
             "injections": [injection, injection],
             "quarantined": [1], "readmitted": [1], "post_quarantine_gaps": 0},
            {**base, "schedule": "loss_burst", "injections": [injection],
             "quarantined": [], "readmitted": [], "post_quarantine_gaps": None},
        ]
        assert get_merger("chaos_records").render(merged, {}).splitlines() == [
            "chaos crash_restart seed=1: sent=69 received=69 "
            "loss_rate=0.0000 faults=2 quarantined=[1] readmitted=[1] "
            "post_quarantine_gaps=0",
            "chaos loss_burst seed=1: sent=69 received=69 "
            "loss_rate=0.0000 faults=1 quarantined=[] readmitted=[] "
            "post_quarantine_gaps=None",
        ]

    def test_ctrlbft_lines(self):
        base = {"variant": "central3", "adversary": "lying", "seed": 1,
                "sent": 98}
        merged = [
            {**base, "ctrl_k": 1, "received": 32,
             "loss_rate": 0.673469387755102,
             "data_fingerprint": "dd9a4c7b426cd70f", "ctrl": {"blocked": 0},
             "malicious_installed": 18, "ctrl_quarantined": [],
             "detection_latency": None},
            {**base, "ctrl_k": 3, "received": 98, "loss_rate": 0.0,
             "data_fingerprint": "89cb372b98cc613d", "ctrl": {"blocked": 18},
             "malicious_installed": 0, "ctrl_quarantined": [1],
             "detection_latency": 0.0037235458675790763},
        ]
        assert get_merger("ctrlbft_records").render(merged, {}).splitlines() == [
            "ctrlbft central3 ctrl_k=1 adversary=lying seed=1: sent=98 "
            "received=32 loss_rate=0.6735 fp=dd9a4c7b426cd70f blocked=0 "
            "malicious_installed=18 ctrl_quarantined=[] detection_latency=-",
            "ctrlbft central3 ctrl_k=3 adversary=lying seed=1: sent=98 "
            "received=98 loss_rate=0.0000 fp=89cb372b98cc613d blocked=18 "
            "malicious_installed=0 ctrl_quarantined=[1] "
            "detection_latency=0.0037",
        ]

    def test_advbench_lines(self):
        base = {"variant": "central3", "k": 3, "quorum": 2,
                "profile": "vigilant", "seeds": 1}
        merged = [
            {**base, "adversary": "sampled_p001", "detected": 0,
             "tampered": 0, "leaked_max": 0, "masked_damage_max": 0,
             "false_quarantine_rate_max": 0.0,
             "time_to_first_alarm": None, "detection_latency": None},
            {**base, "adversary": "sweep_timed", "detected": 1,
             "tampered": 49, "leaked_max": 0, "masked_damage_max": 0,
             "false_quarantine_rate_max": 0.0,
             "time_to_first_alarm": 0.002101, "detection_latency": 0.008101},
            {**base, "adversary": "colluding_quorum", "detected": 0,
             "tampered": 194, "leaked_max": 97, "masked_damage_max": 97,
             "false_quarantine_rate_max": 1.0,
             "time_to_first_alarm": 0.002101, "detection_latency": None},
        ]
        assert get_merger("detection_table").render(merged, {}).splitlines() == [
            "advbench central3 k=3 adversary=sampled_p001 profile=vigilant: "
            "detected=0/1 t_alarm=- t_quarantine=- tampered=0 leaked=0 "
            "masked_damage=0 false_quarantine_rate=0.00",
            "advbench central3 k=3 adversary=sweep_timed profile=vigilant: "
            "detected=1/1 t_alarm=0.0021 t_quarantine=0.0081 tampered=49 "
            "leaked=0 masked_damage=0 false_quarantine_rate=0.00",
            "advbench central3 k=3 adversary=colluding_quorum "
            "profile=vigilant: detected=0/1 t_alarm=0.0021 t_quarantine=- "
            "tampered=194 leaked=97 masked_damage=97 "
            "false_quarantine_rate=1.00",
        ]


class TestFlagHygiene:
    @pytest.mark.parametrize("argv", [
        ["fig5", "--quick", "--variant", "dup3"],   # chaos-only flags
        ["fig5", "--quick", "--chaos", "spec.json"],
        ["all", "--variant", "dup3"],
        ["plan", "run", "chaos", "--variant", "dup3"],
        ["fig7", "--jobs", "0"],
        ["fig7", "--jobs", "-2"],
        ["plan", "run", "smoke", "--jobs", "0"],
        ["fig7", "--task-timeout", "-1"],
        ["fig7", "--task-timeout", "0"],
        ["fig7", "--train", "0"],
        ["chaos", "--variant", "dup3"],             # no compare element
        ["chaos", "--quick", "--no-cache", "--variant", "linespeed"],
        ["obs", "trace", "--chaos", "crash"],       # the removed dead knob
        ["fig5", "--profile"],                      # --profile-shards profiles
        ["live", "demo", "--packets", "0"],
        ["live", "demo", "--interval", "0"],
        ["live", "demo", "--payload-size", "5"],    # no room for the probe header
        ["live", "demo", "--packets", "60", "--crash-index", "50",
         "--restart-index", "40"],
        ["live", "demo", "--packets", "30", "--interval", "0.005",
         "--crash-branch", "5"],                    # k = 3
    ], ids=" ".join)
    def test_usage_errors_exit_2_before_anything_runs(self, argv, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            sys.exit(main(argv))  # what `python -m repro` does
        assert excinfo.value.code == 2
        # no simulation ran and no worker process was spawned
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    def test_train_is_a_builtin_only_preset(self, capsys):
        assert main(["plan", "run", SMOKE_PLAN, "--train", "32"]) == 2
        assert "--train" in capsys.readouterr().err

    def test_plan_run_train_matches_per_packet(self, capsys):
        assert main(["plan", "run", "smoke", "--no-cache"]) == 0
        per_packet = capsys.readouterr().out
        assert main(["plan", "run", "smoke", "--no-cache",
                     "--train", "32"]) == 0
        assert capsys.readouterr().out == per_packet


class TestBadPaths:
    """An unreadable plan / report / schedule is an ``error:`` line and
    exit 2, never a traceback."""

    def test_directory_named_like_a_builtin_does_not_shadow_it(
            self, capsys, tmp_path, monkeypatch):
        (tmp_path / "smoke").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["plan", "run", "smoke", "--no-cache"]) == 0
        assert "rtt_ms" in capsys.readouterr().out

    def test_plan_run_on_a_directory(self, capsys, tmp_path):
        assert main(["plan", "run", str(tmp_path)]) == 2
        assert "error: no plan file" in capsys.readouterr().err

    def test_plan_run_on_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plan", "run", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_diff_missing_report(self, capsys, tmp_path):
        assert main(["obs", "diff", str(tmp_path / "missing.json"),
                     str(tmp_path / "x.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_obs_diff_malformed_report(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert main(["obs", "diff", str(bad), str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_chaos_missing_schedule_file(self, capsys, tmp_path):
        assert main(["chaos", "--quick", "--no-cache",
                     "--chaos", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")
