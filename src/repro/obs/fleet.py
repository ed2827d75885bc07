"""The fleet picture: the ``/fleet`` payload and ``fleet watch``'s frame.

:func:`fleet_snapshot` reads one :class:`~repro.farm.progress.FarmProgress`
— the live one a farm folds as it runs, or one folded from a JSONL log
with :meth:`~repro.farm.progress.FarmProgress.from_events` — so the
dashboard and the log agree on every key but the live cache's
``stats()`` and wall-clock times.  It never feeds anything back into the
farm: result dicts and spec hashes are bit-identical with the dashboard
on or off.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Optional

__all__ = ["fleet_snapshot"]


def fleet_snapshot(
    progress, cache=None, jobs: Optional[int] = None, name: str = ""
) -> Dict[str, Any]:
    """One JSON-ready fleet picture.

    ``jobs`` stands in until the ``farm.summary`` records the battery's
    own; ``cache`` is the live :class:`~repro.farm.cache.ResultCache`
    (a log cannot rebuild its stats).
    """
    with progress.lock:
        counters = progress.snapshot()
        per_runner = {k: dict(v) for k, v in progress.per_runner.items()}
        inflight = [dict(v) for v in progress.in_flight.values()]
        digests = [dict(d) for d in progress.digests]
        ewma = progress.ewma_wall
        finished = progress.finished
        if progress.jobs is not None:
            jobs = progress.jobs
    elapsed = counters["elapsed_s"]
    remaining = counters["queued"] - counters["done"] - counters["failed"]
    eta = None
    if remaining > 0 and ewma is not None and jobs:
        eta = round(remaining * ewma / jobs, 3)
    return {
        "name": name,
        "jobs": jobs,
        "finished": finished,
        "progress": counters,
        "throughput_tasks_per_s": (
            round(counters["done"] / elapsed, 3) if elapsed > 0 else None
        ),
        "per_runner": per_runner,
        "in_flight": sorted(inflight, key=itemgetter("since")),
        "ewma_task_wall_s": round(ewma, 6) if ewma is not None else None,
        "eta_s": eta,
        "cache": cache.stats() if cache is not None else None,
        "alarm_feed": digests,
    }
