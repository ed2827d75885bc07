"""Tests for declarative experiment plans (:mod:`repro.plan`).

Pins the three contracts the refactor rests on:

* the checked-in plan artefacts under ``examples/plans/`` are exactly
  what the builders produce, and every artefact round-trips to
  byte-identical JSON;
* plan expansion reproduces the historical hand-wired loop nestings
  spec-key for spec-key (so cache entries and merged records survive);
* ``plan run`` serial and parallel produce bit-identical records.
"""

import glob
import json
import os

import pytest

from repro.analysis.cli import main
from repro.analysis.tasks import params_to_dict
from repro.chaos.schedule import FaultSchedule, builtin_battery
from repro.farm.executor import FarmExecutor
from repro.farm.spec import RunSpec
from repro.plan.plan import ExperimentPlan, PlanStage
from repro.plan.builtin import (
    advbench_plan,
    builtin_plan,
    builtin_plan_names,
    chaos_plan,
    fig4_plan,
    fig5_plan,
    fig6_plan,
    fig7_plan,
    fig8_plan,
    jitter_params,
    table1_plan,
    virtualized_plan,
)
from repro.scenarios.registry import (
    ScenarioSpec,
    compare_scenarios,
    figure_scenarios,
    scenario_names,
    table1_scenarios,
)
from repro.scenarios.testbed import VARIANTS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PLAN_DIR = os.path.join(REPO_ROOT, "examples", "plans")
CHAOS_SPEC = os.path.join(REPO_ROOT, "examples", "chaos_crash_central3.json")


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _keys(specs):
    return [spec.key for spec in specs]


class TestArtefacts:
    """Every shipped JSON artefact loads, validates and round-trips."""

    def test_every_builtin_plan_is_checked_in(self):
        for name in builtin_plan_names():
            assert os.path.exists(os.path.join(PLAN_DIR, f"{name}.json"))

    def test_plan_files_match_builders_byte_for_byte(self):
        for name in builtin_plan_names():
            text = _read(os.path.join(PLAN_DIR, f"{name}.json"))
            assert text == builtin_plan(name).to_json(), name

    def test_plan_files_validate_and_round_trip(self):
        paths = sorted(glob.glob(os.path.join(PLAN_DIR, "*.json")))
        assert paths
        for path in paths:
            text = _read(path)
            plan = ExperimentPlan.from_json(text)
            plan.validate()
            assert plan.expand()
            assert plan.to_json() == text, path
            assert ExperimentPlan.from_json(plan.to_json()).to_json() == text

    def test_chaos_schedule_artefact_round_trips(self):
        text = _read(CHAOS_SPEC)
        schedule = FaultSchedule.from_json(text)
        assert schedule.events
        canonical = json.dumps(schedule.to_dict(), indent=2, sort_keys=True) + "\n"
        assert canonical == text

    def test_chaos_schedule_artefact_embeds_in_a_plan(self):
        schedule = FaultSchedule.from_json_file(CHAOS_SPEC)
        plan = chaos_plan(schedules=[schedule.to_dict()], seeds=(1,))
        plan.validate()
        specs = plan.expand()
        assert len(specs) == 1
        assert specs[0].kwargs["schedule"]["name"] == "crash_central3"


class TestExpansionEquivalence:
    """Plan expansion == the historical hand-wired spec loops, key for
    key (content hashes are what the result cache and merge go by)."""

    def test_fig4_matches_legacy_loop(self):
        scenarios, duration, reps, seed = ("linespeed", "central3"), 0.06, 3, 1
        legacy = [
            RunSpec(
                "fig4.tcp",
                {"variant": variant, "duration": duration,
                 "reverse": bool(rep % 2), "params": None},
                seed=seed + rep,
            )
            for variant in scenarios
            for rep in range(reps)
        ]
        plan = fig4_plan(scenarios=scenarios, duration=duration,
                         repetitions=reps, seed=seed)
        assert _keys(plan.expand()) == _keys(legacy)

    def test_fig5_matches_legacy_loop(self):
        legacy = [
            RunSpec(
                "fig5.udp_max",
                {"variant": variant, "duration": 0.04, "iterations": 6,
                 "params": None},
                seed=1,
            )
            for variant in figure_scenarios()
        ]
        plan = fig5_plan(duration=0.04, iterations=6)
        assert _keys(plan.expand()) == _keys(legacy)

    def test_fig6_matches_legacy_loop(self):
        rates = (60, 230, 350)
        legacy = [
            RunSpec(
                "fig6.udp_point",
                {"variant": "central3", "rate_mbps": rate, "duration": 0.04,
                 "params": None},
                seed=1,
            )
            for rate in rates
        ]
        plan = fig6_plan(offered_mbps=rates, duration=0.04)
        assert _keys(plan.expand()) == _keys(legacy)

    def test_fig7_matches_legacy_loop(self):
        legacy = [
            RunSpec(
                "fig7.rtt",
                {"variant": variant, "count": 20, "params": None},
                seed=1 + rep,
            )
            for variant in table1_scenarios()
            for rep in range(2)
        ]
        plan = fig7_plan(count=20, sequences=2)
        assert _keys(plan.expand()) == _keys(legacy)

    def test_fig8_matches_legacy_loop(self):
        sizes = (128, 1470)
        tuned = params_to_dict(jitter_params())
        legacy = [
            RunSpec(
                "fig8.jitter",
                {"variant": variant, "payload_size": size, "rate_mbps": 10.0,
                 "duration": 0.05, "params": tuned},
                seed=1 + rep,
            )
            for variant in table1_scenarios()
            for size in sizes
            for rep in range(2)
        ]
        plan = fig8_plan(payload_sizes=sizes, duration=0.05, repetitions=2)
        assert _keys(plan.expand()) == _keys(legacy)

    def test_chaos_matches_legacy_loop(self):
        schedules = [s.to_dict() for s in builtin_battery().values()]
        legacy = [
            RunSpec(
                "chaos.run",
                {"variant": "central3", "schedule": schedule,
                 "duration": 0.04, "rate_mbps": 20.0, "params": None},
                seed=seed,
            )
            for schedule in schedules
            for seed in (1, 2)
        ]
        plan = chaos_plan(duration=0.04)
        assert _keys(plan.expand()) == _keys(legacy)

    def test_table1_is_one_batch_of_the_three_stages(self):
        plan = table1_plan()
        specs = plan.expand()
        tcp = fig4_plan(scenarios=table1_scenarios()).expand()
        udp = fig5_plan(scenarios=table1_scenarios()).expand()
        rtt = fig7_plan(sequences=2).expand()
        assert _keys(specs) == _keys(tcp) + _keys(udp) + _keys(rtt)

    def test_table1_runs_as_one_farm_batch(self):
        farm = FarmExecutor()
        values = table1_plan(duration_tcp=0.03, duration_udp=0.03,
                             ping_count=5, repetitions=1).run(farm)
        # 5 tcp + 5 udp + 5 rtt specs, one batch, one farm
        assert farm.progress.queued == 15
        assert set(values) == {"tcp_mbps", "udp_mbps", "rtt_ms"}
        for metric in values:
            assert set(values[metric]) == set(table1_scenarios())

    def test_rep_args_cycle_by_seed_position(self):
        stage = fig4_plan(scenarios=("linespeed",), repetitions=4).stages[0]
        reverses = [spec.kwargs["reverse"] for spec in stage.expand()]
        assert reverses == [False, True, False, True]

    def test_sweep_axes_expand_in_sorted_name_order(self):
        stage = PlanStage(
            name="s", task="fig7.rtt", seeds=[1], merge={"kind": "records_list"},
            scenarios=["linespeed"], sweep={"b": [1, 2], "a": [10, 20]},
        )
        grid = [(s.kwargs["a"], s.kwargs["b"]) for s in stage.expand()]
        assert grid == [(10, 1), (10, 2), (20, 1), (20, 2)]


class TestValidation:
    def _stage(self, **overrides):
        fields = dict(
            name="s", task="fig7.rtt", seeds=[1],
            merge={"kind": "mean_record", "experiment": "x",
                   "description": "y", "metric": "m", "unit": "u"},
            scenarios=["linespeed"],
        )
        fields.update(overrides)
        return PlanStage(**fields)

    def test_valid_stage_passes(self):
        self._stage().validate()

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown farm runner"):
            self._stage(task="nope.nope").validate()

    def test_unknown_scenario_uses_registry_message(self):
        with pytest.raises(ValueError, match="unknown testbed variant 'bogus'"):
            self._stage(scenarios=["bogus"]).validate()

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            self._stage(schedules=[{"events": [{"kind": "nope"}]}]).validate()

    def test_unknown_testbed_param_rejected(self):
        with pytest.raises(ValueError, match="unknown testbed param"):
            self._stage(params={"not_a_field": 1}).validate()

    def test_unknown_merge_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown merge kind"):
            self._stage(merge={"kind": "nope"}).validate()

    def test_missing_merge_options_rejected(self):
        with pytest.raises(ValueError, match="needs option"):
            self._stage(merge={"kind": "mean_record"}).validate()

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            self._stage(seeds=[]).validate()

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ValueError, match="sweep axis"):
            self._stage(sweep={"rate_mbps": []}).validate()

    def test_duplicate_stage_names_rejected(self):
        plan = ExperimentPlan(name="p", stages=[self._stage(), self._stage()])
        with pytest.raises(ValueError, match="duplicate stage name"):
            plan.validate()

    def test_unknown_combine_rejected(self):
        plan = ExperimentPlan(name="p", stages=[self._stage()], combine="nope")
        with pytest.raises(ValueError, match="unknown combine recipe"):
            plan.validate()

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            ExperimentPlan.from_dict({"name": "p", "stages": [], "events": []})

    @pytest.mark.parametrize("field, value", [
        ("watches", [{"pattern": "*"}]),
        ("baseline", "report.json"),
    ])
    def test_the_removed_regression_gate_fields_are_unknown(self, field, value):
        # the plan-level gate compared a report that never carried metrics;
        # `repro obs diff` is the gate
        with pytest.raises(ValueError, match=f"unknown field.*{field}"):
            ExperimentPlan.from_dict({"name": "p", "stages": [], field: value})

    def test_newer_plan_version_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            ExperimentPlan.from_dict({"version": 999, "name": "p", "stages": []})

    def test_unknown_builtin_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown built-in plan"):
            builtin_plan("fig99")


class TestRegistryDerivation:
    """Scenario lists and CLI choices all derive from the registry."""

    def test_variants_tuple_comes_from_registry(self):
        assert VARIANTS == scenario_names()
        assert VARIANTS == ("linespeed", "central3", "central5",
                            "pox3", "dup3", "dup5",
                            "virtual2", "virtual3", "transport3", "sampled2",
                            "fattree_shielded3")

    def test_compare_scenarios_are_those_with_a_compare_element(self):
        assert compare_scenarios() == (
            "central3", "central5", "pox3",
            "virtual2", "virtual3", "transport3", "sampled2",
            "fattree_shielded3")

    def test_figure_and_table1_orders(self):
        assert figure_scenarios() == ("linespeed", "dup3", "dup5",
                                      "central3", "central5", "pox3")
        assert table1_scenarios() == ("linespeed", "dup3", "dup5",
                                      "central3", "central5")

    @pytest.mark.parametrize("fields, message", [
        ({"depth": 0}, "depth must be >= 1"),
        ({"sample_rate": 1.5}, "sample rate out of range"),
        ({"sample_rate": -0.1}, "sample rate out of range"),
        ({"topology": "ladder", "mode": "dup"}, "virtual combiner"),
        ({"topology": "ladder", "transport": "controller"}, "virtual combiner"),
        ({"topology": "ladder", "depth": 2}, "virtual combiner"),
        ({"topology": "ladder", "sample_rate": 0.5}, "virtual combiner"),
        ({"topology": "pod", "mode": "dup"}, "shielded router"),
        ({"topology": "pod", "depth": 3}, "shielded router"),
        ({"topology": "tree"}, "unknown topology"),
    ])
    def test_spec_validates_the_realisation_fields(self, fields, message):
        spec = {"k": 3, "mode": "combine", "transport": "inline", **fields}
        with pytest.raises(ValueError, match=message):
            ScenarioSpec("probe", **spec).validate()

    @pytest.mark.parametrize("build", [
        lambda: chaos_plan(variant="dup3"),
        lambda: advbench_plan(variants=("central3", "linespeed")),
        lambda: virtualized_plan(variants=("dup5",)),
    ])
    def test_supervised_plans_reject_a_scenario_without_a_compare(self, build):
        with pytest.raises(ValueError, match="has no compare element"):
            build()

    def test_build_testbed_error_lists_registry_names(self):
        from repro.scenarios.testbed import build_testbed

        with pytest.raises(ValueError, match="pick from"):
            build_testbed("bogus")

    def test_cli_variant_choices_come_from_registry(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--variant", "bogus"])


class TestPlanCli:
    def test_list_names_every_builtin(self, capsys):
        assert main(["plan", "list"]) == 0
        out = capsys.readouterr().out
        for name in builtin_plan_names():
            assert name in out

    def test_validate_accepts_the_artefacts(self, capsys):
        paths = sorted(glob.glob(os.path.join(PLAN_DIR, "*.json")))
        assert main(["plan", "validate"] + paths) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == len(paths)

    def test_validate_rejects_a_broken_plan(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad",
            "stages": [{"name": "s", "task": "fig7.rtt", "seeds": [1],
                        "merge": {"kind": "records_list"},
                        "scenarios": ["bogus"]}],
        }))
        assert main(["plan", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_run_unknown_plan_fails_cleanly(self, capsys):
        assert main(["plan", "run", "fig99"]) == 2
        assert "no plan file" in capsys.readouterr().err

    def test_quick_rejected_for_plan_files(self, capsys):
        path = os.path.join(PLAN_DIR, "smoke.json")
        assert main(["plan", "run", path, "--quick"]) == 2
        assert "--quick" in capsys.readouterr().err

    def test_run_smoke_parallel_stdout_matches_serial(self, capsys, tmp_path):
        args = ["plan", "run", "smoke", "--cache-dir", str(tmp_path / "c")]
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr()
        assert main(args + ["--no-cache"]) == 0
        serial = capsys.readouterr()
        # stdout is purely deterministic; telemetry goes to stderr
        assert parallel.out == serial.out
        assert "[farm]" in parallel.err and "[farm]" not in parallel.out

    def test_run_writes_report_with_stage_records(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["plan", "run", "smoke", "--no-cache",
                     "--report", str(report_path)]) == 0
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["name"] == "smoke"
        assert report["records"][0]["stage"] == "smoke"
        assert "smoke" in report["farm"]

    def test_repro_cli_dispatches_plan_subcommand(self, capsys):
        assert main(["plan", "list"]) == 0
        assert "table1" in capsys.readouterr().out
