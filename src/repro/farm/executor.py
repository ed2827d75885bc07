"""Sharded execution of :class:`RunSpec` lists.

``jobs=1`` executes inline in the calling process, in the order given —
no subprocesses, no pickling, exactly the code path the tier-1 suite
exercises — while ``jobs>1`` shards the specs over a
:class:`ProcessPoolExecutor` from a queue the parent holds: longest
declared span first (:func:`longest_first`), each spec handed to a worker
the moment one frees, so the batch ends on its critical path.  Either way
the runners are imported in the parent before anything runs, and the
result is a ``{spec.key: value}`` mapping, so merging is driven by spec
identity and the parallel output is bit-identical to serial.

Fault handling:

* **per-task timeout** — enforced inside the task's process with a real
  interval timer (SIGALRM), so a wedged simulation cannot hang the farm;
* **worker crash** — a task that kills its worker (segfault, OOM-kill,
  ``os._exit``) breaks the pool; the pool is rebuilt and the spec is
  retried a bounded number of times.  A crash with several specs in
  flight reruns each of them alone first, so only the spec that causes
  it is charged;
* **task exceptions** — deterministic errors are *not* retried (the
  rerun would fail identically); they surface as :class:`FarmTaskError`.

Task results are normalised through a JSON round-trip before merging so
fresh, parallel and cache-served values are indistinguishable.
"""

from __future__ import annotations

import json
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.farm.cache import ResultCache
from repro.farm.progress import FarmProgress
from repro.farm.spec import RunSpec, resolve_runner, spec_span
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


def longest_first(specs: Sequence[RunSpec]) -> List[RunSpec]:
    """``specs`` in pool hand-out order: the longest declared span first,
    specs whose runner declares none last; ties keep the given order."""

    def order(spec: RunSpec) -> Tuple[bool, float]:
        span = spec_span(spec)
        return span is None, -(span or 0.0)

    return sorted(specs, key=order)


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
            self._resolve(pending)
            if self.jobs == 1:
                self._run_inline(pending, results)
            else:
                self._run_pool(pending, results)
        self.progress.farm_finished(self.jobs)
        return results

    def _resolve(self, specs: List[RunSpec]) -> None:
        """Import every runner of the batch here, once, before any spec
        runs: an unknown runner fails the batch with nothing executed,
        and forked workers inherit the imported task modules."""
        for spec in specs:
            try:
                resolve_runner(spec.runner)  # a dict hit once imported
            except (KeyError, ImportError, AttributeError) as exc:
                self.progress.task_failed(spec, repr(exc))
                raise FarmTaskError(spec, 0, repr(exc)) from exc

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
    # sharded (jobs>1): a parent-held queue handed to a process pool
    # ------------------------------------------------------------------
    def _run_pool(self, specs: List[RunSpec], results: Dict[str, Any]) -> None:
        queue = deque(longest_first(specs))
        solo: Deque[RunSpec] = deque()
        attempts = dict.fromkeys((spec.key for spec in specs), 0)
        while queue or solo:
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(queue) + len(solo))
            )
            try:
                self._drain(pool, queue, solo, attempts, results)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)

    def _drain(
        self,
        pool: ProcessPoolExecutor,
        queue: Deque[RunSpec],
        solo: Deque[RunSpec],
        attempts: Dict[str, int],
        results: Dict[str, Any],
    ) -> None:
        """Hand specs to ``pool`` until none is left or the pool breaks.

        A spec leaves the head of ``queue`` the moment a worker frees, at
        most ``jobs`` in flight, and is charged an attempt then.  A spec
        in flight when a worker crashed reruns from ``solo``, alone and
        ahead of the queue.  A crash under one spec is that spec's and
        counts against its retries; a crash under several cannot say
        whose it was, so it fails none of them and their solo reruns land
        the next crash on the spec that causes it.
        """
        in_flight: Dict[Future, RunSpec] = {}
        while True:
            broken = False
            try:
                if solo:
                    if not in_flight:
                        self._hand_off(pool, solo[0], attempts, in_flight)
                else:
                    while queue and len(in_flight) < self.jobs:
                        self._hand_off(pool, queue[0], attempts, in_flight)
                        queue.popleft()
            except BrokenProcessPool:
                if not in_flight:
                    raise
                broken = True  # a spec in flight killed its worker
            if not in_flight:
                return
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            if broken or any(
                isinstance(future.exception(), BrokenProcessPool) for future in done
            ):
                done, _ = wait(in_flight)  # the break fails every spec in flight
            if solo:
                solo.popleft()  # its one run is over, whatever the outcome
            crashed: List[RunSpec] = []
            for future in [f for f in in_flight if f in done]:  # hand-off order
                spec = in_flight.pop(future)
                try:
                    value, wall = future.result()
                except BrokenProcessPool:
                    crashed.append(spec)
                except TaskTimeout as exc:
                    self._retry_or_fail(
                        spec, attempts[spec.key],
                        f"timed out after {self.timeout}s", queue, exc,
                    )
                except Exception as exc:
                    # a deterministic task error: retrying cannot help
                    self.progress.task_failed(spec, repr(exc))
                    raise FarmTaskError(
                        spec, attempts[spec.key], repr(exc)
                    ) from exc
                else:
                    self._record(spec, value, wall, results)
            if len(crashed) == 1:
                self._retry_or_fail(
                    crashed[0], attempts[crashed[0].key], "worker crashed", solo
                )
            else:
                for spec in crashed:
                    self.progress.task_retried(spec, "worker crashed")
                solo.extend(crashed)
            if broken or crashed:
                return

    def _hand_off(
        self,
        pool: ProcessPoolExecutor,
        spec: RunSpec,
        attempts: Dict[str, int],
        in_flight: Dict[Future, RunSpec],
    ) -> None:
        future = pool.submit(
            _execute_spec, spec, self.timeout, self.profile_dir,
            attempts[spec.key] + 1,
        )
        attempts[spec.key] += 1
        self.progress.task_started(spec, attempt=attempts[spec.key])
        in_flight[future] = spec

    def _retry_or_fail(
        self,
        spec: RunSpec,
        attempts: int,
        reason: str,
        queue: Deque[RunSpec],
        cause: Optional[BaseException] = None,
    ) -> None:
        """Put ``spec`` back at the head of ``queue``, or fail the batch
        once it has used its retries."""
        if attempts <= self.retries:
            self.progress.task_retried(spec, reason)
            queue.appendleft(spec)
            return
        self.progress.task_failed(spec, reason)
        raise FarmTaskError(spec, attempts, reason) from cause

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
