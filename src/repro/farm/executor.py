"""Sharded execution of :class:`RunSpec` lists.

``jobs=1`` executes inline in the calling process — no subprocesses, no
pickling, exactly the code path the tier-1 suite exercises — while
``jobs>1`` shards the specs over a :class:`ProcessPoolExecutor`.  Either
way the result is a ``{spec.key: value}`` mapping, so merging is driven
by spec identity and the parallel output is bit-identical to serial.

Fault handling:

* **per-task timeout** — enforced inside the task's process with a real
  interval timer (SIGALRM), so a wedged simulation cannot hang the farm;
* **worker crash** — a task that kills its worker (segfault, OOM-kill,
  ``os._exit``) breaks the pool; the pool is rebuilt and the affected
  specs are retried a bounded number of times;
* **task exceptions** — deterministic errors are *not* retried (the
  rerun would fail identically); they surface as :class:`FarmTaskError`.

Task results are normalised through a JSON round-trip before merging so
fresh, parallel and cache-served values are indistinguishable.
"""

from __future__ import annotations

import json
import signal
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.farm.cache import ResultCache
from repro.farm.progress import FarmProgress
from repro.farm.spec import RunSpec
from repro.obs.events import run_digest
from repro.obs.metrics import StatBlock


class TaskTimeout(Exception):
    """A farm task exceeded its per-task wall-clock budget."""


class FarmTaskError(RuntimeError):
    """A farm task failed permanently (after any retries)."""

    def __init__(self, spec: RunSpec, attempts: int, cause: str) -> None:
        super().__init__(
            f"farm task {spec.runner!r} (key {spec.short_key}) failed "
            f"after {attempts} attempt(s): {cause}"
        )
        self.spec = spec
        self.attempts = attempts
        self.cause = cause


def _alarm_handler(signum, frame):  # pragma: no cover - fires asynchronously
    raise TaskTimeout("per-task timeout expired")


def _execute_spec(
    spec: RunSpec,
    timeout: Optional[float],
    profile_dir: Optional[str] = None,
    attempt: int = 1,
) -> Tuple[Any, float]:
    """Run one spec (in whichever process), returning (value, wall_s).

    The timeout is enforced with ``setitimer``/SIGALRM where available
    (worker processes run tasks in their main thread, so this is safe);
    platforms without SIGALRM simply run without enforcement.  With
    ``profile_dir`` set the task runs under cProfile and dumps its stats
    into that directory (``--profile-shards``); the profiler tax lands in
    wall time only — the task's result value is untouched.
    """
    use_alarm = timeout is not None and hasattr(signal, "SIGALRM")
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        if profile_dir is not None:
            from repro.farm.profiling import run_profiled

            value = run_profiled(spec.execute, spec, attempt, profile_dir)
        else:
            value = spec.execute()
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    # normalise exactly like a cache round-trip would
    return json.loads(json.dumps(value)), wall


class FarmExecutor:
    """Runs a batch of specs, with caching, sharding and retry."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        progress: Optional[FarmProgress] = None,
        profile_dir: Optional[str] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.progress = progress if progress is not None else FarmProgress()
        self.profile_dir = profile_dir
        StatBlock.publish_samples(
            lambda: {"farm_task_retries_total": self.progress.retried}
        )

    def run(self, specs: Sequence[RunSpec]) -> Dict[str, Any]:
        """Execute every spec; return ``{spec.key: value}``."""
        results: Dict[str, Any] = {}
        pending: List[RunSpec] = []
        seen = set()
        for spec in specs:
            if spec.key in seen:
                continue  # duplicate work item, one execution serves both
            seen.add(spec.key)
            self.progress.task_queued(spec)
            if self.cache is not None:
                hit, value = self.cache.get(spec)
                if hit:
                    results[spec.key] = value
                    self.progress.task_cached(spec)
                    continue
                self.progress.cache_miss(spec)
            pending.append(spec)
        if pending:
            if self.jobs == 1:
                self._run_inline(pending, results)
            else:
                self._run_pool(pending, results)
        self.progress.farm_finished(self.jobs)
        return results

    # ------------------------------------------------------------------
    # inline (jobs=1): deterministic, subprocess-free
    # ------------------------------------------------------------------
    def _run_inline(self, specs: List[RunSpec], results: Dict[str, Any]) -> None:
        for spec in specs:
            self.progress.task_started(spec, attempt=1)
            try:
                value, wall = _execute_spec(
                    spec, self.timeout, self.profile_dir, attempt=1
                )
            except TaskTimeout:
                self.progress.task_failed(spec, "timeout")
                raise FarmTaskError(
                    spec, 1, f"timed out after {self.timeout}s"
                ) from None
            except Exception as exc:
                self.progress.task_failed(spec, repr(exc))
                raise FarmTaskError(spec, 1, repr(exc)) from exc
            self._record(spec, value, wall, results)

    # ------------------------------------------------------------------
    # sharded (jobs>1): process pool with crash/timeout retry rounds
    # ------------------------------------------------------------------
    def _run_pool(self, specs: List[RunSpec], results: Dict[str, Any]) -> None:
        attempts: Dict[str, int] = {spec.key: 0 for spec in specs}
        pending = list(specs)
        while pending:
            retry: List[RunSpec] = []
            pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
            try:
                futures = {}
                for spec in pending:
                    attempts[spec.key] += 1
                    self.progress.task_started(spec, attempt=attempts[spec.key])
                    futures[
                        pool.submit(
                            _execute_spec,
                            spec,
                            self.timeout,
                            self.profile_dir,
                            attempts[spec.key],
                        )
                    ] = spec
                for future in as_completed(futures):
                    spec = futures[future]
                    try:
                        value, wall = future.result()
                    except (BrokenProcessPool, TaskTimeout) as exc:
                        reason = (
                            "worker crashed"
                            if isinstance(exc, BrokenProcessPool)
                            else f"timed out after {self.timeout}s"
                        )
                        if attempts[spec.key] <= self.retries:
                            self.progress.task_retried(spec, reason)
                            retry.append(spec)
                        else:
                            self.progress.task_failed(spec, reason)
                            raise FarmTaskError(
                                spec, attempts[spec.key], reason
                            ) from exc
                    except Exception as exc:
                        # a deterministic task error: retrying cannot help
                        self.progress.task_failed(spec, repr(exc))
                        raise FarmTaskError(
                            spec, attempts[spec.key], repr(exc)
                        ) from exc
                    else:
                        self._record(spec, value, wall, results)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            pending = retry

    def _record(
        self,
        spec: RunSpec,
        value: Any,
        wall: float,
        results: Dict[str, Any],
    ) -> None:
        results[spec.key] = value
        if self.cache is not None:
            self.cache.put(spec, value)
        self.progress.task_done(spec, wall)
        digest = run_digest(value)
        if digest:
            self.progress.task_digest(spec, digest)
