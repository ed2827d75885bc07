"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates any table or figure of the paper without going through
pytest.  Useful for quick exploration and for recording results:

    python -m repro table1
    python -m repro fig6 --quick
    python -m repro casestudy
    python -m repro all --jobs 4
    python -m repro plan run examples/plans/fig5.json --jobs 4

Every figure/table command is an alias for a built-in declarative
:class:`~repro.plan.plan.ExperimentPlan` (checked in as JSON under
``examples/plans/``); ``python -m repro plan run|validate|list`` works
with arbitrary user-written plans.

Figure/table experiments run on the experiment farm (:mod:`repro.farm`):
``--jobs N`` shards their independent simulations over N worker
processes, and results are cached on disk under ``.repro-cache/`` keyed
by content hash (``--no-cache`` disables, ``--cache-dir`` relocates).
Parallel runs merge by spec key, so ``--jobs 4`` output is identical to
``--jobs 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from functools import partial
from typing import Callable, Dict, Optional

from repro.analysis.records import paper_table1_values
from repro.analysis.report import (
    render_farm_summary,
    render_record,
    render_series,
    render_table1,
)
from repro.farm import FarmExecutor, FarmTaskError, ResultCache
from repro.plan.builtin import builtin_plan
from repro.scenarios.registry import scenario_names


def _run_plan(name: str, args: argparse.Namespace,
              farm: Optional[FarmExecutor], **overrides: object):
    """Run built-in plan ``name`` at the parsed ``--quick``/``--train``.

    ``--train`` travels as a ``params`` override only above the default
    1, so presets keep their own ``params``.
    """
    if args.train > 1:
        overrides["params"] = {"batch_train": args.train}
    return builtin_plan(name, quick=args.quick, **overrides).run(farm)


def _cmd_table1(args: argparse.Namespace, farm: Optional[FarmExecutor]) -> list:
    # one plan, one farm batch: the tcp/udp/rtt specs shard together
    results = _run_plan("table1", args, farm)
    print(render_table1(results, paper=paper_table1_values()))
    return [{"scenario": scenario, **metrics}
            for scenario, metrics in results.items()]


def _cmd_record(name: str, args: argparse.Namespace,
                farm: Optional[FarmExecutor]) -> list:
    """fig4 / fig5 / fig7: a plan that merges to one ExperimentRecord."""
    record = _run_plan(name, args, farm)
    print(render_record(record))
    return [record.to_dict()]


def _cmd_fig6(args: argparse.Namespace, farm: Optional[FarmExecutor]) -> list:
    points = _run_plan("fig6", args, farm)
    print(render_series("Figure 6: Central3 goodput", "offered Mbit/s",
                        "goodput Mbit/s", [(o, round(g, 1)) for o, g, _ in points]))
    print(render_series("Figure 6: Central3 loss", "offered Mbit/s",
                        "loss rate", [(o, round(l, 4)) for o, _, l in points]))
    return [{"offered_mbps": o, "goodput_mbps": round(g, 3),
             "loss_rate": round(l, 6)} for o, g, l in points]


def _cmd_fig8(args: argparse.Namespace, farm: Optional[FarmExecutor]) -> list:
    series = _run_plan("fig8", args, farm)
    records = []
    for scenario, points in series.items():
        print(render_series(f"Figure 8 — {scenario}", "payload B",
                            "jitter ms", [(s, round(j, 5)) for s, j in points]))
        records.append({"scenario": scenario,
                        "points": [[s, round(j, 6)] for s, j in points]})
    return records


def _cmd_chaos(args: argparse.Namespace, farm: Optional[FarmExecutor]) -> list:
    from repro.chaos import FaultSchedule

    schedules = None
    if args.chaos is not None:
        schedules = [FaultSchedule.from_json_file(args.chaos).to_dict()]
    records = _run_plan(
        "chaos", args, farm, schedules=schedules, variant=args.variant
    )
    for r in records:
        print(
            f"chaos {r['schedule']} seed={r['seed']}: "
            f"sent={r['sent']} received={r['received']} "
            f"loss_rate={r['loss_rate']:.4f} faults={len(r['injections'])} "
            f"quarantined={r['quarantined']} readmitted={r['readmitted']} "
            f"post_quarantine_gaps={r['post_quarantine_gaps']}"
        )
    return records


def _cmd_ctrlbft(args: argparse.Namespace, farm: Optional[FarmExecutor]) -> list:
    records = _run_plan("ctrlbft", args, farm)
    for r in records:
        detect = (
            f"{r['detection_latency']:.4f}"
            if r["detection_latency"] is not None
            else "-"
        )
        print(
            f"ctrlbft {r['variant']} ctrl_k={r['ctrl_k']} "
            f"adversary={r['adversary']} seed={r['seed']}: "
            f"sent={r['sent']} received={r['received']} "
            f"loss_rate={r['loss_rate']:.4f} fp={r['data_fingerprint']} "
            f"blocked={r['ctrl']['blocked']} "
            f"malicious_installed={r['malicious_installed']} "
            f"ctrl_quarantined={r['ctrl_quarantined']} "
            f"detection_latency={detect}"
        )
    return records


def _cmd_advbench(args: argparse.Namespace, farm: Optional[FarmExecutor]) -> list:
    rows = _run_plan("advbench", args, farm)
    for r in rows:
        alarm = (
            f"{r['time_to_first_alarm']:.4f}"
            if r["time_to_first_alarm"] is not None else "-"
        )
        detect = (
            f"{r['detection_latency']:.4f}"
            if r["detection_latency"] is not None else "-"
        )
        print(
            f"advbench {r['variant']} k={r['k']} "
            f"adversary={r['adversary']} profile={r['profile']}: "
            f"detected={r['detected']}/{r['seeds']} "
            f"t_alarm={alarm} t_quarantine={detect} "
            f"tampered={r['tampered']} "
            f"leaked={r['leaked_max']} "
            f"masked_damage={r['masked_damage_max']} "
            f"false_quarantine_rate={r['false_quarantine_rate_max']:.2f}"
        )
    return rows


def _cmd_casestudy(args: argparse.Namespace, farm: Optional[FarmExecutor]) -> list:
    from repro.analysis.report import format_table
    from repro.scenarios.datacenter import DatacenterCaseStudy

    study = DatacenterCaseStudy(seed=1, echo_count=10)
    rows = []
    records = []
    for result in (study.run_baseline(), study.run_attack(), study.run_protected()):
        rows.append([
            result.scenario,
            str(result.requests_sent),
            str(result.requests_at_fw1),
            str(result.responses_at_vm1),
            str(result.screening.strays),
        ])
        records.append({
            "scenario": result.scenario,
            "requests_sent": result.requests_sent,
            "requests_at_fw1": result.requests_at_fw1,
            "responses_at_vm1": result.responses_at_vm1,
            "strays": result.screening.strays,
        })
    print("Section VI case study")
    print(format_table(["scenario", "sent", "req@fw1", "resp@vm1", "strays"], rows))
    return records


def _cmd_virtualized(args: argparse.Namespace, farm: Optional[FarmExecutor]) -> list:
    from repro.adversary import PayloadCorruptionBehavior
    from repro.scenarios.virtualized import build_virtualized_scenario
    from repro.traffic.iperf import PathEndpoints, run_ping

    records = []
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
        records.append({"k": k, "sent": result.sent, "received": result.received,
                        "alarms": scenario.compare_core.alarms.count(),
                        "verdict": verdict})
    return records


def _run_profiled(name: str, args: argparse.Namespace,
                  farm: Optional[FarmExecutor], top: int = 25) -> list:
    """Run one experiment under cProfile, then print the hot spots."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return COMMANDS[name](args, farm)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative")
        print(f"--- profile: {name} (top {top} by cumulative time) ---",
              file=sys.stderr)
        stats.print_stats(top)


#: experiment name -> ``command(parsed_args, farm)`` returning its records
COMMANDS: Dict[
    str, Callable[[argparse.Namespace, Optional[FarmExecutor]], list]
] = {
    "table1": _cmd_table1,
    "fig4": partial(_cmd_record, "fig4"),
    "fig5": partial(_cmd_record, "fig5"),
    "fig6": _cmd_fig6,
    "fig7": partial(_cmd_record, "fig7"),
    "fig8": _cmd_fig8,
    "advbench": _cmd_advbench,
    "casestudy": _cmd_casestudy,
    "chaos": _cmd_chaos,
    "ctrlbft": _cmd_ctrlbft,
    "virtualized": _cmd_virtualized,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "obs":
        # Observability subcommands live in their own parser; the heavy
        # imports stay lazy so `python -m repro fig5` never pays them.
        from repro.obs.cli import obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "plan":
        # Declarative experiment plans: run/validate/list JSON plans.
        from repro.plan.cli import plan_main

        return plan_main(argv[1:])
    if argv and argv[0] == "fleet":
        # Fleet telemetry tools: watch/replay/profile.
        from repro.obs.fleet_cli import fleet_main

        return fleet_main(argv[1:])
    if argv and argv[0] == "live":
        # Real-socket runs: the combiner over localhost UDP processes.
        from repro.live.cli import live_main

        return live_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the NetCo paper's tables and figures "
                    "(`python -m repro plan --help` for declarative plans, "
                    "`python -m repro obs --help` for observability tools, "
                    "`python -m repro fleet --help` for live fleet telemetry, "
                    "`python -m repro live demo` for the real-socket demo).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter durations / fewer repetitions",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard independent simulations over N worker processes "
             "(default 1: inline, no subprocesses)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="result-cache location (default .repro-cache/)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock timeout on the farm",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run each experiment under cProfile and print the top "
             "cumulative-time entries (use with --jobs 1: subprocess "
             "work is invisible to the profiler)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC.json",
        help="FaultSchedule JSON for the `chaos` experiment (default: "
             "the built-in battery)",
    )
    parser.add_argument(
        "--variant", default="central3", choices=scenario_names(),
        help="scenario for the `chaos` experiment (choices come from "
             "the scenario registry)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write a RunReport JSON (experiment records + farm progress) "
             "here after the run; composes with --train N (records stay "
             "bit-identical) and with `repro plan run --report` for "
             "declarative plans, so reports diff cleanly across tiers",
    )
    parser.add_argument(
        "--train", type=int, default=1, metavar="N",
        help="packets per train for the data-plane batch tier (default 1: "
             "per-packet events; results are bit-identical either way)",
    )
    parser.add_argument(
        "--events-log", default=None, metavar="PATH",
        help="append every farm event (queued/cached/started/done/retried/"
             "failed + bounded per-run digests) to a JSONL log with gapless "
             "sequence numbers; replay with `repro fleet replay PATH`",
    )
    parser.add_argument(
        "--serve", type=int, default=None, metavar="PORT", nargs="?",
        const=0,
        help="serve a live dashboard on PORT (omit PORT for an ephemeral "
             "one; the bound URL is printed to stderr): /metrics is "
             "Prometheus text, /fleet a JSON snapshot; tail it with "
             "`repro fleet watch --url URL`",
    )
    parser.add_argument(
        "--serve-grace", type=float, default=0.0, metavar="SECONDS",
        help="keep the dashboard serving this long after the run finishes "
             "(lets scrapers catch the final state)",
    )
    parser.add_argument(
        "--profile-shards", default=None, metavar="DIR", nargs="?",
        const=".repro-profile",
        help="run every farm task under cProfile, dumping per-shard stats "
             "into DIR (default .repro-profile/) with an aggregated top-N "
             "table on stderr; re-aggregate with `repro fleet profile DIR`",
    )
    args = parser.parse_args(argv)
    if args.train < 1:
        parser.error(f"--train must be >= 1, got {args.train}")

    names = sorted(COMMANDS) if args.experiment == "all" else [args.experiment]
    all_records = []
    farm_snapshots = {}
    telemetry = None
    if args.events_log or args.serve is not None:
        from repro.obs.wiring import FleetTelemetry

        telemetry = FleetTelemetry(
            events_log=args.events_log,
            serve=args.serve,
            serve_grace=args.serve_grace,
            name=args.experiment,
        )
    try:
        for name in names:
            registry_scope = (
                telemetry.farm_registry() if telemetry is not None
                else contextlib.nullcontext()
            )
            with registry_scope:
                farm = FarmExecutor(
                    jobs=args.jobs,
                    cache=(
                        None if args.no_cache
                        else ResultCache(root=args.cache_dir)
                    ),
                    timeout=args.task_timeout,
                    profile_dir=args.profile_shards,
                )
            if telemetry is not None:
                telemetry.attach(farm, name=name)
            start = time.time()
            try:
                if args.profile:
                    records = _run_profiled(name, args, farm)
                else:
                    records = COMMANDS[name](args, farm)
            except FarmTaskError as exc:
                print(f"error: {exc}", file=sys.stderr)
                if farm.progress.queued:
                    print(render_farm_summary(farm.progress, cache=farm.cache),
                          file=sys.stderr)
                return 1
            if farm.progress.queued:
                print(render_farm_summary(farm.progress, cache=farm.cache))
            print(f"[{name} finished in {time.time() - start:.1f}s]\n")
            for record in records or ():
                all_records.append({"experiment": name, **record})
            if farm.progress.queued:
                farm_snapshots[name] = farm.progress.snapshot()
        if args.profile_shards is not None:
            from repro.farm.profiling import aggregate_profiles

            aggregated = aggregate_profiles(args.profile_shards)
            if aggregated is not None:
                count, table = aggregated
                print(f"--- shard profiles: {count} dump(s) in "
                      f"{args.profile_shards} ---", file=sys.stderr)
                print(table, file=sys.stderr)
    finally:
        if telemetry is not None:
            telemetry.close()
    if args.report:
        from repro.obs.report import RunReport

        RunReport(
            name=args.experiment,
            meta={"quick": args.quick, "jobs": args.jobs,
                  "experiments": names},
            records=all_records,
            farm=farm_snapshots or None,
        ).save(args.report)
        print(f"[run report written to {args.report}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
