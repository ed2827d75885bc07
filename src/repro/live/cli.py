"""``python -m repro live ...`` — the real-socket demo commands.

:func:`register` declares them on the one command tree
(:mod:`repro.analysis.cli`); the demo (and with it ``asyncio``) is
imported when the handler runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.live.schedule import LiveFault, LiveSchedule
from repro.plan.cli import positive_float, positive_int


def register(subparsers) -> None:
    """Declare ``live demo`` on the one command tree."""
    live = subparsers.add_parser(
        "live", help="the NetCo combiner over localhost UDP sockets",
        description="run the NetCo combiner over localhost UDP sockets",
    )
    sub = live.add_subparsers(dest="subcommand", required=True)
    demo = sub.add_parser(
        "demo",
        help="3 switch processes + 1 compare process under a fault "
        "schedule, diffed against the DES twin",
    )
    demo.add_argument("--packets", type=positive_int, default=300)
    demo.add_argument("--interval", type=positive_float, default=0.01,
                      help="CBR inter-departure time in seconds")
    demo.add_argument("--payload-size", type=positive_int, default=256)
    demo.add_argument("--crash-branch", type=int, default=1)
    demo.add_argument("--crash-index", type=int, default=None,
                      help="packet index of the crash (default: packets/3)")
    demo.add_argument("--restart-index", type=int, default=None,
                      help="packet index of the restart (default: none)")
    demo.add_argument("--miss-threshold", type=int, default=8)
    demo.add_argument("--probation-clean-target", type=int, default=12)
    demo.add_argument("--live-buffer-timeout", type=float, default=0.15)
    demo.add_argument("--des-buffer-timeout", type=float, default=2e-3)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--skip-des", action="store_true",
                      help="run only the live half (no verdict diff)")
    demo.add_argument("--json", dest="json_path", default=None,
                      help="write the full report to this file")
    demo.set_defaults(func=_cmd_demo)


def _print_verdict(label: str, verdict: dict) -> None:
    print(f"  {label}: sent={verdict['sent']} released={verdict['released']} "
          f"fingerprint={verdict['fingerprint']}")
    print(f"    alarms={verdict['alarms']}")
    print(f"    transitions={verdict['transitions']} "
          f"quarantined={verdict['quarantined']}")


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.live.demo import K, datagram_template, run_live_demo

    crash_index = args.crash_index
    if crash_index is None:
        crash_index = args.packets // 3
    schedule = LiveSchedule(
        name="crash_restart" if args.restart_index is not None else "crash",
        faults=(LiveFault(args.crash_branch, crash_index, args.restart_index),),
    )
    try:
        schedule.validate(K)
        datagram_template(args.payload_size)  # must hold the probe header
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_live_demo(
        packets=args.packets,
        interval=args.interval,
        payload_size=args.payload_size,
        schedule=schedule,
        miss_threshold=args.miss_threshold,
        probation_clean_target=args.probation_clean_target,
        live_buffer_timeout=args.live_buffer_timeout,
        des_buffer_timeout=args.des_buffer_timeout,
        seed=args.seed,
        skip_des=args.skip_des,
    )
    print(f"live demo: {report['packets']} packets, "
          f"schedule {report['schedule']['name']} {report['schedule']['faults']}")
    _print_verdict("udp", report["live"])
    if report["des"] is not None:
        _print_verdict("des", report["des"])
        if report["match"]:
            print("verdicts MATCH")
        else:
            print("verdicts DIFFER:")
            for diff in report["diffs"]:
                print(f"  - {diff}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.json_path}")
    if report["des"] is None:
        return 0
    return 0 if report["match"] else 1

