"""Durable fleet telemetry: an append-only JSONL event log.

The farm's live telemetry (:class:`~repro.farm.progress.FarmProgress`)
is TraceBus-shaped and in-memory: once the process exits, the only
surviving artefact is the rendered summary line.  This module makes the
stream *durable and replayable*: an :class:`EventLogWriter` appends one
JSON object per line, each carrying a **monotonic, gapless sequence
number**, and a :class:`FarmEventLogger` bridges a farm's progress bus
onto a writer, so every queued/cached/started/done/retried/failed
transition — plus a bounded per-run digest of what happened *inside*
each simulation (alarms raised, quarantine transitions, control-plane
vote divergences) — lands on disk as it happens.

Design constraints:

* **pull/append-only** — the log observes; it never feeds back.  Result
  dicts, RunReports and spec hashes are bit-identical with the log on
  or off (the fleet-smoke CI job diffs exactly this).
* **typed** — every event kind declares its required data fields in
  :data:`EVENT_SCHEMA`; the writer refuses malformed events, so a log
  that exists always validates.
* **replayable** — :meth:`FarmProgress.from_events` folds the task
  events with the same method the live farm folds them with, and
  :func:`check_replay` proves the result equals the ``farm.summary``
  event the run recorded (gapless sequence numbers make truncation
  loud).

Wall-clock timestamps (``ts``) are seconds since the writer opened; they
order the log but carry no simulation meaning — simulated-time telemetry
stays on the per-run TraceBus.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple

__all__ = [
    "EVENT_SCHEMA",
    "EventLogError",
    "FleetEvent",
    "EventLogWriter",
    "FarmEventLogger",
    "run_digest",
    "read_events",
    "validate_events",
    "check_replay",
    "sanitise_value",
    "ROLLUP_FIELDS",
]

#: log format version, stamped into the ``log.open`` event
LOG_VERSION = 1

#: event kind -> required data fields.  Extra fields are allowed (the
#: digest event carries whatever bounded facts the run produced); a
#: *missing* required field is a schema violation.
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "log.open": ("version", "name"),
    "log.close": ("events",),
    "farm.task.queued": ("runner", "key"),
    "farm.cache.miss": ("runner", "key"),
    "farm.task.cached": ("runner", "key"),
    "farm.task.started": ("runner", "key", "attempt"),
    "farm.task.done": ("runner", "key", "wall_time"),
    "farm.task.retried": ("runner", "key", "reason"),
    "farm.task.failed": ("runner", "key", "reason"),
    "farm.task.digest": ("runner", "key"),
    "farm.summary": (
        "jobs", "queued", "running", "done", "failed", "retried",
        "cache_hits", "executed", "task_wall_s", "elapsed_s",
    ),
}

#: the counters a replayed rollup must reproduce exactly (elapsed_s is
#: wall clock at snapshot time and cannot be replayed from task events)
ROLLUP_FIELDS = (
    "queued", "running", "done", "failed", "retried",
    "cache_hits", "executed", "task_wall_s",
)


class EventLogError(ValueError):
    """A malformed event, a sequence gap, or a schema violation."""


@dataclass(frozen=True)
class FleetEvent:
    """One line of the event log."""

    seq: int
    ts: float
    kind: str
    source: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "source": self.source,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FleetEvent":
        try:
            return cls(
                seq=int(payload["seq"]),
                ts=float(payload["ts"]),
                kind=str(payload["kind"]),
                source=str(payload["source"]),
                data=dict(payload.get("data", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EventLogError(f"malformed event line: {exc}") from exc


def sanitise_value(value: Any) -> Any:
    """The one JSON projection of a trace-record or event data value
    (``repro obs dump``, RunReports and the event log).

    Packets collapse to their one-line ``summary()``; anything else
    non-JSON falls back to ``repr``.  MAC and IP addresses are ``int``
    subclasses: they take the ``repr`` too, never their number.
    """
    if value is None or isinstance(value, (bool, float, str)) or type(value) is int:
        return value
    summary = getattr(value, "summary", None)
    if callable(summary):
        return summary()
    if isinstance(value, (list, tuple)):
        return [sanitise_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): sanitise_value(v) for k, v in value.items()}
    return repr(value)


class EventLogWriter:
    """Append-only JSONL sink with gapless sequence numbering.

    The writer owns the sequence counter: the first event (``log.open``,
    emitted by the constructor) is ``seq=0`` and every ``append`` takes
    the next integer.  Lines are flushed as written, so a tail (or a
    crashed run's post-mortem) always sees a prefix of complete lines.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        name: str = "",
        meta: Optional[Dict[str, Any]] = None,
        fh: Optional[IO[str]] = None,
    ) -> None:
        if (path is None) == (fh is None):
            raise ValueError("pass exactly one of path / fh")
        self.path = path
        self._fh = fh if fh is not None else open(path, "w", encoding="utf-8")
        self._owns_fh = fh is None
        self._next_seq = 0
        self._t0 = time.time()
        self.closed = False
        self.append(
            "log.open", "fleet",
            version=LOG_VERSION, name=name, meta=meta or {},
        )

    @property
    def events_written(self) -> int:
        return self._next_seq

    def append(self, kind: str, source: str, **data: Any) -> int:
        """Validate, serialise and flush one event; returns its seq."""
        if self.closed:
            raise EventLogError("event log is closed")
        required = EVENT_SCHEMA.get(kind)
        if required is None:
            raise EventLogError(f"unknown event kind {kind!r}")
        missing = [f for f in required if f not in data]
        if missing:
            raise EventLogError(f"{kind}: missing required fields {missing}")
        seq = self._next_seq
        self._next_seq += 1
        event = FleetEvent(
            seq=seq,
            ts=round(time.time() - self._t0, 6),
            kind=kind,
            source=source,
            data={k: sanitise_value(v) for k, v in data.items()},
        )
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True))
        self._fh.write("\n")
        self._fh.flush()
        return seq

    def close(self) -> None:
        """Append the closing event and release the file handle."""
        if self.closed:
            return
        self.append("log.close", "fleet", events=self._next_seq + 1)
        self.closed = True
        if self._owns_fh:
            self._fh.close()


# ----------------------------------------------------------------------
# bounded per-run digests
# ----------------------------------------------------------------------
#: cap on list/dict entries carried by one digest (the log is bounded
#: per task no matter how eventful the run was)
DIGEST_BOUND = 8

#: result-dict list fields lifted (bounded) into the digest
_DIGEST_LISTS = ("quarantined", "readmitted", "ctrl_quarantined", "ctrl_readmitted")


def run_digest(value: Any) -> Optional[Dict[str, Any]]:
    """A bounded telemetry digest of one task's result value.

    Farm tasks return JSON values; the richer ones (``chaos.run``,
    ``ctrl.run``) carry alarms, quarantine transitions, control-plane
    vote accounting and fault timelines.  This lifts the operationally
    interesting facts — bounded to :data:`DIGEST_BOUND` entries each —
    into one flat dict for the event log and the live alarm feed.
    Returns ``None`` for results with nothing to report (plain figure
    samples), so most tasks cost no digest event at all.
    """
    if not isinstance(value, dict):
        return None
    digest: Dict[str, Any] = {}
    alarms = value.get("alarms")
    if isinstance(alarms, dict) and alarms:
        digest["alarms"] = {k: alarms[k] for k in sorted(alarms)[:DIGEST_BOUND]}
    for field_name in _DIGEST_LISTS:
        entries = value.get(field_name)
        if isinstance(entries, list) and entries:
            digest[field_name] = entries[:DIGEST_BOUND]
    injections = value.get("injections")
    if isinstance(injections, list) and injections:
        digest["faults"] = [
            {"time": i.get("time"), "kind": i.get("kind"), "target": i.get("target")}
            for i in injections[:DIGEST_BOUND]
        ]
    detection = value.get("detection_latency")
    if isinstance(detection, (int, float)):
        digest["detection_latency"] = detection
    ctrl = value.get("ctrl")
    if isinstance(ctrl, dict):
        for key in ("blocked", "malicious_released"):
            if ctrl.get(key):
                digest[f"ctrl_{key}"] = ctrl[key]
    malicious = value.get("malicious_installed")
    if malicious:
        digest["malicious_installed"] = malicious
    fallbacks = value.get("batch_fallbacks")
    if isinstance(fallbacks, dict) and fallbacks:
        digest["batch_fallbacks"] = {
            k: fallbacks[k] for k in sorted(fallbacks)[:DIGEST_BOUND]
        }
    return digest or None


# ----------------------------------------------------------------------
# the farm bridge
# ----------------------------------------------------------------------
class FarmEventLogger:
    """Streams one farm's progress bus onto an event-log writer.

    Subscribes to the ``farm.*`` topic prefix of the progress object's
    TraceBus, so it sees **every** record in emit order — including
    records past the bus's retention saturation point (listeners are
    exempt from truncation; see the TraceBus saturation contract).  The
    record topic doubles as the event kind; a farm topic the schema does
    not know is dropped and counted in :attr:`skipped`, so a newer farm
    cannot corrupt an older log.
    """

    def __init__(self, writer: EventLogWriter, progress) -> None:
        self.writer = writer
        self.progress = progress
        self.forwarded = 0
        self.skipped = 0
        progress.bus.subscribe("farm.*", self._on_record)

    def detach(self) -> None:
        self.progress.bus.unsubscribe("farm.*", self._on_record)

    def _on_record(self, record) -> None:
        if record.topic not in EVENT_SCHEMA:
            self.skipped += 1
            return
        self.writer.append(record.topic, record.source, **record.data)
        self.forwarded += 1


# ----------------------------------------------------------------------
# reading, validation, replay
# ----------------------------------------------------------------------
def read_events(path: str) -> List[FleetEvent]:
    """Parse one JSONL event log; raises :class:`EventLogError` on a
    line that is not valid JSON or not event-shaped."""
    events: List[FleetEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EventLogError(f"{path}:{lineno}: not JSON: {exc}") from exc
            events.append(FleetEvent.from_dict(payload))
    return events


def validate_events(events: Iterable[FleetEvent]) -> List[str]:
    """Schema + sequencing errors for one event stream (empty = valid).

    Checks: sequence numbers start at 0 and are gapless; every kind is
    known; every event carries its kind's required fields; the log opens
    with ``log.open``; a ``log.close`` (when present) is final and its
    ``events`` count matches.
    """
    errors: List[str] = []
    events = list(events)
    for position, event in enumerate(events):
        if event.seq != position:
            errors.append(
                f"seq gap: event #{position} carries seq {event.seq}"
            )
        required = EVENT_SCHEMA.get(event.kind)
        if required is None:
            errors.append(f"seq {event.seq}: unknown kind {event.kind!r}")
            continue
        missing = [f for f in required if f not in event.data]
        if missing:
            errors.append(f"seq {event.seq}: {event.kind} missing {missing}")
    if events and events[0].kind != "log.open":
        errors.append(f"log does not open with log.open (got {events[0].kind!r})")
    for position, event in enumerate(events):
        if event.kind == "log.close":
            if position != len(events) - 1:
                errors.append(f"log.close at seq {event.seq} is not final")
            elif event.data.get("events") != len(events):
                errors.append(
                    f"log.close claims {event.data.get('events')} events, "
                    f"log holds {len(events)}"
                )
    return errors


def _replayed(events: List[FleetEvent]) -> Dict[str, Any]:
    """The :data:`ROLLUP_FIELDS` of the fold of ``events``' last battery."""
    # function-local: the farm package imports this module
    from repro.farm.progress import FarmProgress

    counters = FarmProgress.from_events(events).snapshot()
    return {fname: counters[fname] for fname in ROLLUP_FIELDS}


def check_replay(events: Iterable[FleetEvent]) -> Tuple[Dict[str, Any], List[str]]:
    """Replay the log and diff the result against its ``farm.summary``.

    Returns ``(replayed_rollup, errors)``.  A log whose farm run never
    finished (no summary event) is an error — the stream is truncated.
    When a log spans several farm batteries (``python -m repro all``),
    each summary is compared against the fold of the events after the
    previous one, so every battery must reconcile.
    """
    events = list(events)
    errors = validate_events(events)
    ends = [i for i, e in enumerate(events) if e.kind == "farm.summary"]
    if not ends:
        errors.append("no farm.summary event: log is truncated mid-run")
        return _replayed(events), errors
    start = 0
    for end in ends:
        replayed = _replayed(events[start:end + 1])
        summary = events[end]
        for fname in ROLLUP_FIELDS:
            expected = summary.data.get(fname)
            if replayed[fname] != expected:
                errors.append(
                    f"replay mismatch at seq {summary.seq}: "
                    f"{fname} replayed={replayed[fname]} recorded={expected}"
                )
        start = end + 1
    return replayed, errors
