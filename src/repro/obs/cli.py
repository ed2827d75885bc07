"""``python -m repro obs`` — observability subcommands.

    python -m repro obs summary [--quick] [--report out.json]
    python -m repro obs dump --scenario central3 -o trace.jsonl
    python -m repro obs diff baseline.json current.json
    python -m repro obs trace 3 --ctrl

``summary`` runs the instrumented Figure 5 workload and prints per-link
and per-compare metrics (optionally saving the RunReport JSON and a
Prometheus text snapshot).  ``dump`` writes the retained trace records
of one instrumented scenario as JSON lines.  ``diff`` compares two run
reports under regression watch rules and exits non-zero when a watched
counter breaches its threshold — this is the CI gate.  ``trace``
reconstructs one marked packet's cross-layer story (data-plane hops,
compare votes, control-plane voting, overlapping fault windows).

Exit codes (all subcommands): 0 success; 1 a watched counter breached
(``diff``) or the requested trace id does not exist (``trace``); 2
usage error (argparse) or an unreadable report / watch file (``diff``).

:func:`register` declares these subcommands on the one command tree
(:mod:`repro.analysis.cli`); handlers import what they run when called.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.obs.summary import build_run_report, render_summary

    report, runs = build_run_report(
        quick=args.quick,
        seed=args.seed,
        sample_rate=args.sample,
        duration=args.duration,
        train=args.train,
    )
    print(render_summary(report))
    if args.report:
        report.save(args.report)
        print(f"\n[run report written to {args.report}]")
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            for run in runs:
                fh.write(f"# scenario {run.variant}\n")
                fh.write(run.registry.render_prometheus())
        print(f"[prometheus snapshot written to {args.prometheus}]")
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    from repro.obs.report import dump_records_jsonl
    from repro.obs.summary import run_instrumented_scenario

    run = run_instrumented_scenario(
        args.scenario,
        duration=args.duration or 0.01,
        seed=args.seed,
        sample_rate=args.sample,
    )
    records = run.testbed.network.trace.select(topic=args.topic or None)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            count = dump_records_jsonl(records, fh)
        print(f"[{count} records written to {args.output}]", file=sys.stderr)
    else:
        dump_records_jsonl(records, sys.stdout)
    return 0


def _load_watches(path: str):
    """Watch rules from a JSON list of {pattern, max_ratio, max_increase}."""
    from repro.obs.report import WatchRule

    with open(path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    return [WatchRule(**entry) for entry in entries]


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.report import DEFAULT_WATCHES, RunReport, diff_reports

    try:
        base = RunReport.load(args.base)
        new = RunReport.load(args.new)
        watches = _load_watches(args.watch) if args.watch else DEFAULT_WATCHES
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = diff_reports(base, new, watches)
    breached = [f for f in findings if f.breached]
    if not args.quiet:
        shown = findings if args.verbose else breached
        for finding in shown:
            print(finding.describe())
    # The one-line verdict (and the exit code) survives --quiet: callers
    # must be able to gate on status alone instead of grepping output.
    print(
        f"compared {len(findings)} watched samples "
        f"({base.name!r} -> {new.name!r}): "
        + (f"{len(breached)} BREACHED" if breached else "all within thresholds")
    )
    return 1 if breached else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.spans import cross_layer_story
    from repro.obs.summary import (
        run_instrumented_ctrl_scenario,
        run_instrumented_scenario,
    )

    if args.ctrl:
        run = run_instrumented_ctrl_scenario(
            variant=args.scenario,
            ctrl_k=args.ctrl_k,
            adversary=args.adversary,
            duration=args.duration or 0.005,
            seed=args.seed,
            sample_rate=args.sample,
        )
    else:
        run = run_instrumented_scenario(
            args.scenario,
            duration=args.duration or 0.002,
            seed=args.seed,
            sample_rate=args.sample,
        )
    tracer = run.tracer
    ids = tracer.trace_ids()
    if args.list or args.trace_id is None:
        stats = tracer.stats()
        print(f"marked {stats['marked']} packet(s), "
              f"{stats['traces']} trajectories indexed")
        preview = ", ".join(str(i) for i in ids[:20])
        more = f" … ({len(ids)} total)" if len(ids) > 20 else ""
        print(f"trace ids: {preview}{more}")
        return 0
    if args.trace_id not in tracer.trajectories():
        preview = ", ".join(str(i) for i in ids[:20])
        print(f"error: no trajectory for trace id {args.trace_id} "
              f"(available: {preview})", file=sys.stderr)
        return 1
    chaos_records = run.testbed.network.trace.select(topic="chaos.*")
    story = cross_layer_story(
        tracer.trajectory(args.trace_id), chaos_records=chaos_records
    )
    layers = sorted({entry["layer"] for entry in story})
    print(f"trace {args.trace_id}: {len(story)} event(s) across "
          f"layers [{', '.join(layers)}]")
    for entry in story:
        data = entry["data"]
        detail = " ".join(
            f"{k}={v}" for k, v in data.items() if k not in ("packet",)
        )
        packet = data.get("packet")
        if packet:
            detail = f"{detail} packet={packet}" if detail else f"packet={packet}"
        print(f"  {entry['time'] * 1e6:10.2f}us  [{entry['layer']:>7}] "
              f"{entry['topic']:<24} {entry['source']:<16} {detail}")
    return 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The instrumented-run knobs shared by ``summary``, ``dump`` and ``trace``."""
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sample", type=float, default=1.0, metavar="RATE",
                        help="packet-trace sampling rate in [0,1] (default 1.0)")
    parser.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                        help="per-scenario flow duration")


def register(subparsers) -> None:
    """Declare ``obs summary|dump|diff|trace`` on the one command tree."""
    from repro.adversary.catalogue import CONTROL, row_names

    obs = subparsers.add_parser(
        "obs", help="observability: metric summaries, trace dumps, report diffs",
        description="Observability: metric summaries, trace dumps, report diffs.",
    )
    sub = obs.add_subparsers(dest="subcommand", required=True)

    p_summary = sub.add_parser("summary", help="instrumented fig5 run + metrics")
    p_summary.add_argument("--quick", action="store_true",
                           help="fewer scenarios, shorter flows")
    _add_run_arguments(p_summary)
    p_summary.add_argument("--train", type=int, default=1, metavar="N",
                           help="packets per train for the batch tier "
                                "(default 1: per-packet path)")
    p_summary.add_argument("--report", metavar="PATH",
                           help="write the RunReport JSON here")
    p_summary.add_argument("--prometheus", metavar="PATH",
                           help="write a Prometheus text snapshot here")
    p_summary.set_defaults(func=_cmd_summary)

    p_dump = sub.add_parser("dump", help="dump trace records as JSON lines")
    p_dump.add_argument("--scenario", default="central3",
                        help="testbed variant to run (default central3)")
    p_dump.add_argument("--topic", default=None, metavar="TOPIC",
                        help='exact topic or "prefix*" filter')
    _add_run_arguments(p_dump)
    p_dump.add_argument("-o", "--output", default="-", metavar="PATH",
                        help="output file (default stdout)")
    p_dump.set_defaults(func=_cmd_dump)

    p_diff = sub.add_parser(
        "diff", help="compare two run reports",
        description="Compare two RunReports under regression watch rules.",
        epilog="exit codes: 0 all watched samples within thresholds; "
               "1 at least one watched counter BREACHED (the one-line "
               "summary and the exit code survive --quiet, so scripts "
               "can gate on status instead of grepping); 2 usage error "
               "or an unreadable report / watch file",
    )
    p_diff.add_argument("base", help="baseline RunReport JSON")
    p_diff.add_argument("new", help="candidate RunReport JSON")
    p_diff.add_argument("--watch", metavar="PATH",
                        help="JSON list of watch rules (default: built-in set)")
    p_diff.add_argument("-v", "--verbose", action="store_true",
                        help="print non-breached findings too")
    p_diff.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-finding lines; keep the one-line "
                             "summary and the exit code")
    p_diff.set_defaults(func=_cmd_diff)

    p_trace = sub.add_parser(
        "trace", help="reconstruct one packet's cross-layer story",
        description="Run an instrumented scenario and print one marked "
                    "packet's full story: data-plane hops, compare votes, "
                    "control-plane voting (with --ctrl) and overlapping "
                    "fault windows.",
        epilog="exit codes: 0 story printed (or id listing); 1 no "
               "trajectory for the requested id; 2 usage error",
    )
    p_trace.add_argument("trace_id", nargs="?", type=int, default=None,
                         help="trace id to reconstruct (omit to list ids)")
    p_trace.add_argument("--scenario", default="central3",
                         help="testbed variant (default central3)")
    p_trace.add_argument("--ctrl", action="store_true",
                         help="run under a replicated control plane so the "
                              "story includes ctrl.vote/ctrl.release spans")
    p_trace.add_argument("--ctrl-k", type=int, default=3,
                         help="controller replicas for --ctrl (default 3)")
    p_trace.add_argument("--adversary", default="none",
                         choices=row_names(CONTROL),
                         help="chaos adversary for --ctrl (default none)")
    _add_run_arguments(p_trace)
    p_trace.add_argument("--list", action="store_true",
                         help="list available trace ids and exit")
    p_trace.set_defaults(func=_cmd_trace)
