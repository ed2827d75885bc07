"""``repro fleet`` — terminal view and replay of fleet telemetry.

Subcommands:

* ``watch``   — tail a live run, updating one ANSI frame in place.
  Sources: ``--url http://host:port`` (polls the dashboard's ``/fleet``
  endpoint) or ``--events PATH`` (re-reads a JSONL event log and folds
  its last battery with the farm's own fold, so a run without
  ``--serve`` is still watchable and reads as ``/fleet`` did).
  ``--once`` prints a single frame and exits (useful from scripts and
  CI).
* ``replay``  — validate a JSONL event log against the schema and fold
  each battery; ``--check`` exits non-zero unless every fold matches
  its recorded ``farm.summary`` exactly.
* ``profile`` — aggregate ``--profile-shards`` cProfile dumps into one
  top-N cumulative table.

Exit codes: 0 ok; 1 validation/replay mismatch or unreachable source;
2 usage error (argparse).

:func:`register` declares these subcommands on the one command tree
(:mod:`repro.analysis.cli`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List

from repro.farm.progress import FarmProgress
from repro.obs.events import EventLogError, check_replay, read_events
from repro.obs.fleet import fleet_snapshot

__all__ = ["register"]


# ----------------------------------------------------------------------
# snapshot sources
# ----------------------------------------------------------------------
def _fetch_url_snapshot(url: str) -> Dict[str, Any]:
    import urllib.request

    endpoint = url.rstrip("/") + "/fleet"
    with urllib.request.urlopen(endpoint, timeout=5.0) as response:
        return json.loads(response.read().decode("utf-8"))


def _events_snapshot(path: str) -> Dict[str, Any]:
    """The ``/fleet`` picture of a JSONL log's last battery."""
    events = read_events(path)
    opened = events[0].data if events and events[0].kind == "log.open" else {}
    progress = FarmProgress.from_events(events)
    return fleet_snapshot(progress, name=opened.get("name", ""))


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _render_frame(snap: Dict[str, Any], source: str) -> str:
    progress = snap.get("progress", {})
    lines: List[str] = []
    state = "finished" if snap.get("finished") else "running"
    title = snap.get("name") or "farm"
    lines.append(f"fleet {title}  [{state}]  jobs={snap.get('jobs')}  ({source})")
    lines.append(
        "tasks: {done}/{queued} done  (cached {cache_hits}, executed "
        "{executed}, failed {failed}, retried {retried})".format(
            done=progress.get("done", 0),
            queued=progress.get("queued", 0),
            cache_hits=progress.get("cache_hits", 0),
            executed=progress.get("executed", 0),
            failed=progress.get("failed", 0),
            retried=progress.get("retried", 0),
        )
    )
    rate = snap.get("throughput_tasks_per_s")
    cache = snap.get("cache")
    eta = snap.get("eta_s")
    ewma = snap.get("ewma_task_wall_s")
    bits = []
    if rate is not None:
        bits.append(f"throughput {rate} tasks/s")
    if cache and cache.get("hit_rate") is not None:
        bits.append(f"cache {cache['hit_rate'] * 100:.0f}% hits")
    if ewma is not None:
        bits.append(f"ewma {ewma * 1000:.1f} ms/task")
    if eta is not None:
        bits.append(f"eta ~{eta}s")
    if bits:
        lines.append("  ".join(bits))
    per_runner = snap.get("per_runner")
    if per_runner:
        for runner in sorted(per_runner):
            counts = per_runner[runner]
            lines.append(
                f"  {runner}: {counts['done']}/{counts['queued']} done"
                f" ({counts['cached']} cached, {counts['failed']} failed)"
            )
    inflight = snap.get("in_flight") or []
    if inflight:
        lines.append(f"in flight ({len(inflight)}):")
        for entry in inflight[:10]:
            lines.append(
                f"  {entry['runner']} {entry['key']}"
                f" attempt={entry.get('attempt', 1)} since={entry['since']:.2f}s"
            )
    alarms = snap.get("alarm_feed") or []
    if alarms:
        lines.append(f"recent alarms/digests ({len(alarms)}):")
        for alarm in alarms[-8:]:
            parts = [str(alarm.get("runner", "?")), str(alarm.get("key", "?"))]
            for field in ("alarms", "quarantined", "ctrl_quarantined",
                          "detection_latency", "malicious_installed"):
                if field in alarm:
                    parts.append(f"{field}={alarm[field]}")
            lines.append("  " + " ".join(parts))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_watch(args: argparse.Namespace) -> int:
    source = args.url or args.events
    label = "http" if args.url else "events"
    first = True
    while True:
        try:
            if args.url:
                snap = _fetch_url_snapshot(args.url)
            else:
                snap = _events_snapshot(args.events)
        except (OSError, EventLogError, json.JSONDecodeError) as exc:
            print(f"fleet watch: cannot read {source}: {exc}", file=sys.stderr)
            return 1
        frame = _render_frame(snap, label)
        if args.once:
            print(frame)
            return 0
        if not first:
            # move home and clear below: in-place update without flicker
            sys.stdout.write("\x1b[H\x1b[J")
        else:
            sys.stdout.write("\x1b[2J\x1b[H")
            first = False
        sys.stdout.write(frame + "\n")
        sys.stdout.flush()
        if snap.get("finished"):
            return 0
        time.sleep(args.interval)


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        events = read_events(args.log)
    except (OSError, EventLogError) as exc:
        print(f"fleet replay: {exc}", file=sys.stderr)
        return 1
    replayed, errors = check_replay(events)
    print(f"events: {len(events)}")
    print("replayed rollup: " + json.dumps(replayed, sort_keys=True))
    if errors:
        for error in errors:
            print(f"ERROR: {error}")
        if args.check:
            print(f"replay FAILED: {len(errors)} error(s)")
            return 1
    else:
        print("replay ok: log validates and matches the recorded farm.summary")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.farm.profiling import aggregate_profiles

    aggregated = aggregate_profiles(args.dir, top=args.top)
    if aggregated is None:
        print(f"fleet profile: no profile dumps under {args.dir}", file=sys.stderr)
        return 1
    count, table = aggregated
    print(f"aggregated {count} shard profile(s) from {args.dir}")
    print(table)
    return 0


def register(subparsers) -> None:
    """Declare ``fleet watch|replay|profile`` on the one command tree."""
    fleet = subparsers.add_parser(
        "fleet", help="live view and replay of farm fleet telemetry",
        description="live view and replay of farm fleet telemetry",
    )
    sub = fleet.add_subparsers(dest="subcommand", required=True)

    watch = sub.add_parser("watch", help="tail a live run in place")
    group = watch.add_mutually_exclusive_group(required=True)
    group.add_argument("--url", help="dashboard base URL (e.g. http://127.0.0.1:8377)")
    group.add_argument("--events", help="JSONL event log to tail")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="refresh period in seconds (default 1.0)")
    watch.add_argument("--once", action="store_true",
                       help="print one frame and exit (no ANSI control codes)")
    watch.set_defaults(func=_cmd_watch)

    replay = sub.add_parser("replay", help="validate + replay a JSONL event log")
    replay.add_argument("log", help="path to the JSONL event log")
    replay.add_argument("--check", action="store_true",
                        help="exit 1 unless the replayed rollup matches farm.summary")
    replay.set_defaults(func=_cmd_replay)

    profile = sub.add_parser("profile", help="aggregate --profile-shards dumps")
    profile.add_argument("dir", help="directory of .pstats dumps")
    profile.add_argument("--top", type=int, default=15,
                         help="rows in the cumulative-time table (default 15)")
    profile.set_defaults(func=_cmd_profile)
