"""``python -m repro plan`` — run, validate and list experiment plans.

    python -m repro plan list
    python -m repro plan validate examples/plans/*.json
    python -m repro plan run examples/plans/fig5.json --jobs 4
    python -m repro plan run table1 --quick

``run`` accepts a plan JSON path or a built-in plan name; every figure
command (``python -m repro fig5``) is ``plan run`` on the built-in of
that name.  Everything deterministic (the merged records, rendered by
the plan's merge kind) goes to stdout; farm telemetry (wall times, cache
hit rates) goes to stderr for ``plan run`` — so a ``--jobs N`` run's
stdout is byte-identical to the serial run's, which CI exploits with a
plain ``diff`` — and to stdout for the aliases.  What every farm-backed
command shares lives here: :func:`add_farm_arguments`, :class:`FarmSession`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Any, Dict, List, Optional, TextIO

from repro.analysis.report import render_farm_summary
from repro.farm.cache import ResultCache
from repro.farm.executor import FarmExecutor, FarmTaskError
from repro.plan.builtin import builtin_plan, builtin_plan_names
from repro.plan.mergers import get_combiner, get_merger
from repro.plan.plan import ExperimentPlan

#: where the shipped plan artefacts live, relative to the repo root
PLAN_DIR = os.path.join("examples", "plans")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def add_farm_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of a farm-backed command, declared once for ``plan run``,
    every figure alias and ``all``; :class:`FarmSession` reads them."""
    # a prefix of a flag is not the flag: `--profile` (removed) must not
    # quietly mean `--profile-shards`
    parser.allow_abbrev = False
    parser.add_argument("--quick", action="store_true",
                        help="built-in plans only: shorter durations / "
                             "fewer repetitions")
    parser.add_argument("--train", type=positive_int, default=1, metavar="N",
                        help="built-in plans only: packets per train for the "
                             "batch tier (default 1: per-packet events; "
                             "records are bit-identical either way)")
    parser.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                        help="shard simulations over N worker processes "
                             "(default 1: inline, no subprocesses)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                        help="result-cache location (default .repro-cache/)")
    parser.add_argument("--task-timeout", type=positive_float, default=None,
                        metavar="SECONDS",
                        help="per-task wall-clock timeout on the farm")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write a RunReport JSON (plan records + farm "
                             "progress) here")
    parser.add_argument("--events-log", default=None, metavar="PATH",
                        help="append every farm event to a JSONL log with "
                             "gapless sequence numbers (replay with "
                             "`repro fleet replay PATH`)")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        nargs="?", const=0,
                        help="serve the live dashboard (/metrics /fleet) "
                             "on PORT; omit PORT for an ephemeral one (URL "
                             "printed to stderr)")
    parser.add_argument("--serve-grace", type=float, default=0.0,
                        metavar="SECONDS",
                        help="keep the dashboard up this long after the run "
                             "finishes")
    parser.add_argument("--profile-shards", default=None, metavar="DIR",
                        nargs="?", const=".repro-profile",
                        help="cProfile every farm task into per-shard dumps "
                             "under DIR (default .repro-profile/); aggregate "
                             "with `repro fleet profile DIR`")


def resolve_plan(ref: str, quick: bool = False, train: int = 1,
                 **overrides: Any) -> ExperimentPlan:
    """A plan from a JSON path, or a built-in plan by name.

    ``quick``, ``train`` and ``overrides`` are builder presets: built-in
    names only.  ``train`` travels as a ``params`` override only above
    the default 1, so presets keep their own ``params``.
    """
    if os.path.isfile(ref):
        if quick or train > 1:
            raise ValueError(
                "--quick/--train only apply to built-in plan names")
        return ExperimentPlan.load(ref)
    if ref in builtin_plan_names():
        if train > 1:
            overrides["params"] = {"batch_train": train}
        return builtin_plan(ref, quick=quick, **overrides)
    raise ValueError(
        f"no plan file {ref!r} and no built-in plan of that name "
        f"(built-ins: {list(builtin_plan_names())})"
    )


def _render_output(plan: ExperimentPlan, staged, combined) -> str:
    """Deterministic text for one finished plan run."""
    if plan.combine is not None:
        return get_combiner(plan.combine).render(combined)
    blocks = []
    for stage in plan.stages:
        merger = get_merger(stage.merge["kind"])
        blocks.append(merger.render(staged[stage.name], stage.merge))
    return "\n".join(blocks)


def plan_records(plan: ExperimentPlan, staged, combined) -> List[dict]:
    """Flattened report records for one finished plan run."""
    if plan.combine is not None:
        return get_combiner(plan.combine).records(combined)
    records: List[dict] = []
    for stage in plan.stages:
        merger = get_merger(stage.merge["kind"])
        for record in merger.records(staged[stage.name], stage.merge):
            records.append({"stage": stage.name, **record})
    return records


class FarmSession:
    """Everything the farm flags ask for around one command.

    Fleet telemetry is opened once, each :meth:`run` gets a fresh
    :class:`FarmExecutor`; the plan's rendered output goes to stdout, the
    ``[farm]`` summary, timing and report notices to ``chatter`` (stdout
    for the figure aliases, stderr for ``plan run``, whose stdout CI
    diffs).  On exit shard profiles are aggregated, telemetry is closed
    and, if every plan ran, ``--report`` is written.
    """

    def __init__(self, args: argparse.Namespace, name: str, chatter: TextIO):
        self.args, self.name, self.chatter = args, name, chatter
        self.status = 0
        self._records: List[dict] = []
        self._snapshots: Dict[str, dict] = {}
        self._telemetry = None

    def __enter__(self) -> "FarmSession":
        args = self.args
        if args.events_log or args.serve is not None:
            from repro.obs.wiring import FleetTelemetry

            self._telemetry = FleetTelemetry(
                events_log=args.events_log,
                serve=args.serve,
                serve_grace=args.serve_grace,
                name=self.name,
            )
        return self

    def run(self, plan: ExperimentPlan) -> bool:
        """Expand ``plan`` on a fresh farm, print its merged output and
        keep its records; False (and :attr:`status` 1) on a failed task."""
        args, telemetry = self.args, self._telemetry
        with (telemetry.farm_registry() if telemetry is not None
              else contextlib.nullcontext()):
            farm = FarmExecutor(
                jobs=args.jobs,
                cache=None if args.no_cache else ResultCache(root=args.cache_dir),
                timeout=args.task_timeout,
                profile_dir=args.profile_shards,
            )
        if telemetry is not None:
            telemetry.attach(farm)
        start = time.time()
        try:
            results = farm.run(plan.expand())
            staged = plan.merge_stages(results)
            combined = plan.merge(results)
        except FarmTaskError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if farm.progress.queued:
                print(render_farm_summary(farm.progress, cache=farm.cache),
                      file=sys.stderr)
            self.status = 1
            return False
        print(_render_output(plan, staged, combined))
        if farm.progress.queued:
            print(render_farm_summary(farm.progress, cache=farm.cache),
                  file=self.chatter)
        print(f"[{plan.name} finished in {time.time() - start:.1f}s]\n",
              file=self.chatter)
        self._records.extend(plan_records(plan, staged, combined))
        self._snapshots[plan.name] = farm.progress.snapshot()
        return True

    def __exit__(self, exc_type, exc, tb) -> None:
        args = self.args
        try:
            if args.profile_shards is not None:
                from repro.farm.profiling import aggregate_profiles

                aggregated = aggregate_profiles(args.profile_shards)
                if aggregated is not None:
                    count, table = aggregated
                    print(f"--- shard profiles: {count} dump(s) in "
                          f"{args.profile_shards} ---", file=sys.stderr)
                    print(table, file=sys.stderr)
        finally:
            if self._telemetry is not None:
                self._telemetry.close()
        if args.report and exc_type is None and self.status == 0:
            from repro.obs.report import RunReport

            RunReport(
                name=self.name,
                meta={"quick": args.quick, "jobs": args.jobs,
                      "plans": list(self._snapshots)},
                records=self._records,
                farm=self._snapshots,
            ).save(args.report)
            print(f"[run report written to {args.report}]", file=self.chatter)


def run_plan(args: argparse.Namespace, chatter: Optional[TextIO] = None,
             **overrides: Any) -> int:
    """``plan run PLAN`` (``chatter`` stderr) — and every figure alias,
    which presets ``PLAN`` and passes stdout as ``chatter`` and its own
    flags as ``overrides``."""
    try:
        plan = resolve_plan(args.plan, args.quick, args.train, **overrides)
        plan.validate()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with FarmSession(args, plan.name, chatter or sys.stderr) as session:
        session.run(plan)
    return session.status


def _cmd_list(args: argparse.Namespace) -> int:
    for name in builtin_plan_names():
        plan = builtin_plan(name)
        specs = plan.expand()
        path = os.path.join(PLAN_DIR, f"{name}.json")
        where = path if os.path.exists(path) else "(built-in)"
        print(f"{name:11s} stages={len(plan.stages)} specs={len(specs):3d}  "
              f"{where}")
        if plan.description:
            print(f"            {plan.description}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    failed = 0
    for ref in args.plans:
        try:
            plan = resolve_plan(ref)
            plan.validate()
            # the serialisation contract: a valid plan must round-trip
            reparsed = ExperimentPlan.from_json(plan.to_json())
            if reparsed.to_json() != plan.to_json():
                raise ValueError("plan does not round-trip to identical JSON")
            specs = plan.expand()
        except (ValueError, OSError) as exc:
            print(f"{ref}: INVALID — {exc}", file=sys.stderr)
            failed += 1
            continue
        print(f"{ref}: ok ({len(plan.stages)} stage(s), {len(specs)} spec(s))")
    return 1 if failed else 0


def register(subparsers) -> None:
    """Declare ``plan list|validate|run`` on the one command tree."""
    plan = subparsers.add_parser(
        "plan", help="declarative experiment plans: list, validate, run",
        description="Declarative experiment plans over the experiment farm.",
    )
    sub = plan.add_subparsers(dest="subcommand", required=True)

    p_list = sub.add_parser("list", help="list built-in plans and their artefacts")
    p_list.set_defaults(func=_cmd_list)

    p_validate = sub.add_parser(
        "validate", help="validate plan files (schema, scenarios, "
                         "schedules, round-trip)")
    p_validate.add_argument("plans", nargs="+", metavar="PLAN",
                            help="plan JSON path or built-in name")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="expand a plan onto the farm and "
                                       "merge the results")
    p_run.add_argument("plan", metavar="PLAN",
                       help="plan JSON path or built-in name")
    add_farm_arguments(p_run)
    p_run.set_defaults(func=run_plan)
