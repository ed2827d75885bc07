"""The one command tree: ``python -m repro <command> ...``.

Regenerates any table or figure of the paper without going through
pytest.  Useful for quick exploration and for recording results:

    python -m repro table1
    python -m repro fig6 --quick
    python -m repro casestudy
    python -m repro all --jobs 4
    python -m repro plan run examples/plans/fig5.json --jobs 4

Every figure/table command is an alias: ``repro X [flags]`` is
``repro plan run X [flags]`` on the built-in
:class:`~repro.plan.plan.ExperimentPlan` of that name (checked in as
JSON under ``examples/plans/``) with the ``[farm]`` summary on stdout
instead of stderr; the plan's merge kind (:mod:`repro.plan.mergers`)
owns the text and the ``--report`` records of both spellings.  ``plan``,
``obs``, ``fleet`` and ``live`` declare their subcommands on this tree
through their modules' ``register``; handlers import what they run when
called, so ``repro fig7`` never pays for ``asyncio`` or the dashboard.

Farm-backed commands run on the experiment farm (:mod:`repro.farm`):
``--jobs N`` shards their independent simulations over N worker
processes, and results are cached on disk under ``.repro-cache/`` keyed
by content hash (``--no-cache`` disables, ``--cache-dir`` relocates).
Parallel runs merge by spec key, so ``--jobs 4`` output is identical to
``--jobs 1``.
"""

from __future__ import annotations

import argparse
import sys

from repro.live import cli as live_cli
from repro.obs import cli as obs_cli
from repro.obs import fleet_cli
from repro.plan import cli as plan_cli
from repro.plan.builtin import builtin_plan_names
from repro.scenarios.registry import scenario_names

#: figure/table commands: ``repro X`` == ``repro plan run X``
ALIASES = tuple(name for name in builtin_plan_names() if name != "smoke")


def _cmd_alias(args: argparse.Namespace) -> int:
    overrides = {}
    if args.plan == "chaos":
        overrides["variant"] = args.variant
        if args.chaos is not None:
            from repro.chaos import FaultSchedule

            try:
                schedule = FaultSchedule.from_json_file(args.chaos)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            overrides["schedules"] = [schedule.to_dict()]
    return plan_cli.run_plan(args, sys.stdout, **overrides)


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.scenarios.datacenter import DatacenterCaseStudy

    study = DatacenterCaseStudy(seed=1, echo_count=10)
    rows = [
        [
            result.scenario,
            str(result.requests_sent),
            str(result.requests_at_fw1),
            str(result.responses_at_vm1),
            str(result.screening.strays),
        ]
        for result in (study.run_baseline(), study.run_attack(),
                       study.run_protected())
    ]
    print("Section VI case study")
    print(format_table(["scenario", "sent", "req@fw1", "resp@vm1", "strays"], rows))
    return 0


def _cmd_virtualized(args: argparse.Namespace) -> int:
    from repro.adversary import PayloadCorruptionBehavior
    from repro.scenarios.virtualized import build_virtualized_scenario
    from repro.traffic.iperf import PathEndpoints, run_ping

    for k in (2, 3):
        scenario = build_virtualized_scenario(k=k, paths_available=3, seed=1)
        PayloadCorruptionBehavior().attach(scenario.transit(1))
        result = run_ping(
            PathEndpoints(scenario.network, scenario.src, scenario.dst),
            count=10, interval=1e-3,
        )
        scenario.compare_core.flush()
        verdict = "PREVENTED" if result.received == result.sent else "DETECTED"
        print(f"virtualized k={k} + corrupt vendor: "
              f"{result.received}/{result.sent} pings, "
              f"{scenario.compare_core.alarms.count()} alarms -> {verdict}")
    return 0


#: the two experiments that are not farm plans
PLAIN = {"casestudy": _cmd_casestudy, "virtualized": _cmd_virtualized}


def _cmd_all(args: argparse.Namespace) -> int:
    with plan_cli.FarmSession(args, "all", sys.stdout) as session:
        for name in sorted([*ALIASES, *PLAIN]):
            if name in PLAIN:
                PLAIN[name](args)
                print()
            elif not session.run(
                    plan_cli.resolve_plan(name, args.quick, args.train)):
                break
    return session.status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the NetCo paper's tables and figures, run "
                    "declarative experiment plans, and drive the "
                    "observability, fleet-telemetry and live-socket tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    for name in ALIASES:
        alias = sub.add_parser(
            name, help=f"alias for `plan run {name}` ([farm] summary on stdout)")
        plan_cli.add_farm_arguments(alias)
        if name == "chaos":
            alias.add_argument(
                "--chaos", default=None, metavar="SPEC.json",
                help="FaultSchedule JSON to run instead of the built-in "
                     "battery",
            )
            alias.add_argument(
                "--variant", default="central3", choices=scenario_names(),
                help="scenario under test (choices come from the scenario "
                     "registry)",
            )
        alias.set_defaults(func=_cmd_alias, plan=name)
    sub.add_parser(
        "casestudy", help="Section VI datacenter routing attack",
    ).set_defaults(func=_cmd_casestudy)
    sub.add_parser(
        "virtualized", help="Section VII virtualized combiner",
    ).set_defaults(func=_cmd_virtualized)
    everything = sub.add_parser(
        "all", help="every alias plus casestudy and virtualized, one session")
    plan_cli.add_farm_arguments(everything)
    everything.set_defaults(func=_cmd_all)
    plan_cli.register(sub)
    obs_cli.register(sub)
    fleet_cli.register(sub)
    live_cli.register(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)

