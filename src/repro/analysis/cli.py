"""The one command tree: ``python -m repro <command> ...``.

Regenerates any table or figure of the paper without going through
pytest.  Useful for quick exploration and for recording results:

    python -m repro table1
    python -m repro fig6 --quick
    python -m repro casestudy
    python -m repro all --jobs 4
    python -m repro plan run examples/plans/fig5.json --jobs 4

Every experiment command (the figures and Table I, ``chaos``,
``ctrlbft``, ``advbench``, ``casestudy``, ``virtualized``) is an alias:
``repro X [flags]`` is ``repro plan run X [flags]`` on the built-in
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
from repro.scenarios.registry import compare_scenarios

#: every experiment command: ``repro X`` == ``repro plan run X``
ALIASES = tuple(name for name in builtin_plan_names() if name != "smoke")


def _cmd_alias(args: argparse.Namespace) -> int:
    overrides = {}
    if args.plan == "chaos":
        overrides["variant"] = args.variant
        if args.chaos is not None:
            from repro.chaos.schedule import FaultSchedule

            try:
                schedule = FaultSchedule.from_json_file(args.chaos)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            overrides["schedules"] = [schedule.to_dict()]
    return plan_cli.run_plan(args, sys.stdout, **overrides)


def _cmd_all(args: argparse.Namespace) -> int:
    with plan_cli.FarmSession(args, "all", sys.stdout) as session:
        for name in sorted(ALIASES):
            if not session.run(
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
                "--variant", default="central3", choices=compare_scenarios(),
                help="scenario under test (the registered scenarios with "
                     "a compare element)",
            )
        alias.set_defaults(func=_cmd_alias, plan=name)
    everything = sub.add_parser(
        "all", help="every alias, one farm session")
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

