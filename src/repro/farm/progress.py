"""Farm telemetry: one fold of the ``farm.*`` task stream.

The farm emits the same :class:`~repro.sim.trace.TraceRecord` shape the
simulator uses for its own telemetry, onto a dedicated
:class:`~repro.sim.trace.TraceBus` — so the same subscription/query
helpers work on farm runs.  Record times are wall-clock seconds since
the progress object was created (the farm runs in real time, not
simulated time).

:meth:`FarmProgress.apply` is the only code that turns a ``farm.*``
event into state: each lifecycle hook folds its event before emitting
it, and :meth:`FarmProgress.from_events` folds the same events back out
of a JSONL log.  So ``render_farm_summary``, the ``farm.summary`` event,
``/fleet``, ``fleet watch --events`` and ``fleet replay --check`` all
read one picture.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional

from repro.farm.spec import RunSpec
from repro.sim.trace import TraceBus

SOURCE = "farm"

#: smoothing factor for the task-wall-time EWMA (recent tasks dominate,
#: but one outlier shard does not whipsaw the ETA)
EWMA_ALPHA = 0.3

#: bounded length of the digest feed
DEFAULT_FEED = 50


class FarmProgress:
    """Counts queued/running/done/failed tasks and per-task wall time.

    Besides the counters it keeps what the live view shows: per-runner
    tallies, the tasks in flight, an EWMA of task wall time and a
    bounded feed of per-run digests (alarms, quarantines, votes).
    """

    def __init__(self, bus: Optional[TraceBus] = None) -> None:
        self.bus = bus if bus is not None else TraceBus()
        self.queued = 0
        self.cache_hits = 0
        self.running = 0
        self.done = 0
        self.failed = 0
        self.retried = 0
        #: spec short key -> wall seconds of the successful attempt
        self.wall_times: Dict[str, float] = {}
        #: runner -> {"queued", "done", "cached", "failed"}
        self.per_runner: Dict[str, Dict[str, int]] = {}
        #: spec short key -> {"runner", "key", "attempt", "since"}
        self.in_flight: Dict[str, Dict[str, Any]] = {}
        self.ewma_wall: Optional[float] = None
        self.digests: Deque[Dict[str, Any]] = deque(maxlen=DEFAULT_FEED)
        #: set by the ``farm.summary`` event
        self.finished = False
        self.jobs: Optional[int] = None
        self._elapsed: Optional[float] = None
        self._t0 = time.perf_counter()
        # the dashboard thread reads while the farm thread folds
        self.lock = threading.Lock()

    # ------------------------------------------------------------------
    # the fold
    # ------------------------------------------------------------------
    def apply(self, kind: str, data: Dict[str, Any], t: float) -> None:
        """Fold one ``farm.*`` event (``t``: seconds since the start)."""
        key = data.get("key")
        runner = data.get("runner")
        with self.lock:
            if runner is not None:
                counts = self.per_runner.setdefault(
                    runner, {"queued": 0, "done": 0, "cached": 0, "failed": 0}
                )
            if kind == "farm.task.queued":
                self.queued += 1
                counts["queued"] += 1
            elif kind == "farm.task.cached":
                self.cache_hits += 1
                self.done += 1
                counts["cached"] += 1
                counts["done"] += 1
            elif kind == "farm.task.started":
                self.running += 1
                self.in_flight[key] = {
                    "runner": runner,
                    "key": key,
                    "attempt": data["attempt"],
                    "since": t,
                }
            elif kind == "farm.task.done":
                wall = float(data["wall_time"])
                self.running -= 1
                self.done += 1
                counts["done"] += 1
                self.wall_times[key] = wall
                self.in_flight.pop(key, None)
                if self.ewma_wall is None:
                    self.ewma_wall = wall
                else:
                    self.ewma_wall += EWMA_ALPHA * (wall - self.ewma_wall)
            elif kind == "farm.task.retried":
                self.running -= 1
                self.retried += 1
                self.in_flight.pop(key, None)
            elif kind == "farm.task.failed":
                # a runner that does not resolve fails before its hand-off
                if self.in_flight.pop(key, None) is not None:
                    self.running -= 1
                self.failed += 1
                counts["failed"] += 1
            elif kind == "farm.task.digest":
                self.digests.append({"time": t, **data})
            elif kind == "farm.summary":
                self.finished = True
                self.jobs = data["jobs"]
                self._elapsed = data["elapsed_s"]

    @classmethod
    def from_events(cls, events: Iterable[Any]) -> "FarmProgress":
        """Fold a log's last battery: its farm events after the previous
        ``farm.summary`` (``events`` are :class:`~repro.obs.events.FleetEvent`)."""
        farm = [e for e in events if e.kind.startswith("farm.")]
        ends = [i for i, e in enumerate(farm) if e.kind == "farm.summary"]
        if ends and ends[-1] == len(farm) - 1:
            ends.pop()  # a finished battery ends with its own summary
        progress = cls()
        for event in farm[ends[-1] + 1 if ends else 0:]:
            progress.apply(event.kind, event.data, event.ts)
        if progress._elapsed is None:  # still running: as of its last event
            progress._elapsed = farm[-1].ts if farm else 0.0
        return progress

    # ------------------------------------------------------------------
    # lifecycle hooks called by the executor
    # ------------------------------------------------------------------
    def _emit(self, kind: str, spec: Optional[RunSpec] = None, **data: Any) -> None:
        if spec is not None:
            data.setdefault("runner", spec.runner)
            data.setdefault("key", spec.short_key)
        t = time.perf_counter() - self._t0
        self.apply(kind, data, t)
        self.bus.emit(t, kind, SOURCE, **data)

    def task_queued(self, spec: RunSpec) -> None:
        self._emit("farm.task.queued", spec)

    def task_cached(self, spec: RunSpec) -> None:
        self._emit("farm.task.cached", spec)

    def cache_miss(self, spec: RunSpec) -> None:
        """A queued spec was not in the result cache (it will execute)."""
        self._emit("farm.cache.miss", spec)

    def task_digest(self, spec: RunSpec, digest: Dict[str, Any]) -> None:
        """Bounded per-run telemetry digest (alarms, quarantines, votes)."""
        self._emit("farm.task.digest", spec, **digest)

    def task_started(self, spec: RunSpec, attempt: int) -> None:
        self._emit("farm.task.started", spec, attempt=attempt)

    def task_done(self, spec: RunSpec, wall_time: float) -> None:
        self._emit("farm.task.done", spec, wall_time=wall_time)

    def task_retried(self, spec: RunSpec, reason: str) -> None:
        self._emit("farm.task.retried", spec, reason=reason)

    def task_failed(self, spec: RunSpec, reason: str) -> None:
        self._emit("farm.task.failed", spec, reason=reason)

    def farm_finished(self, jobs: int) -> None:
        self._emit("farm.summary", None, jobs=jobs, **self.snapshot())

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def executed(self) -> int:
        """Tasks that actually ran (done minus cache hits)."""
        return self.done - self.cache_hits

    @property
    def total_task_wall(self) -> float:
        return sum(self.wall_times.values())

    def snapshot(self) -> Dict[str, Any]:
        """The counters (``elapsed_s`` stops at the ``farm.summary``)."""
        elapsed = self._elapsed
        if elapsed is None:
            elapsed = time.perf_counter() - self._t0
        return {
            "queued": self.queued,
            "running": self.running,
            "done": self.done,
            "failed": self.failed,
            "retried": self.retried,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "task_wall_s": round(self.total_task_wall, 4),
            "elapsed_s": round(elapsed, 4),
        }
