"""The packet-train batch realm: a micro-event tier under the event heap.

:class:`BatchRealm` lets the data plane move whole packet trains
(:class:`repro.net.stamp.PacketBatch`) through the pipeline while
keeping every observable bit-identical to the event-per-packet run.  The
trick is a second, much cheaper event queue:

* Batch stages post *micro-events* — bare ``(time, seq, fn, args)``
  tuples on a private heap, the shape of :meth:`Simulator.post` — and
  while a realm is attached ``Simulator.post`` itself lands here.
* The realm keeps exactly one *tick* event on the outer simulator heap,
  pinned at the earliest micro-event time.  When the tick fires, the
  realm drains every micro-event that is due strictly before the next
  outer event (and no later than the active ``run(until=...)`` horizon).
* While draining, the realm **advances ``sim.now`` to each
  micro-event's virtual timestamp**.  Any unmodified legacy handler
  invoked from micro context therefore sees exactly the clock it would
  have seen as an outer event — per-packet fallbacks are ordinary calls
  into the existing code, not re-implementations.

Because micro-events execute in global timestamp order, interleaved with
the outer heap, all shared mutable state (link queues, CPU busy chains,
vote books, chaos fault flags) is read and written at the same virtual
times as in the unbatched run.  Ties between a micro-event and an outer
event at the same float timestamp go to the outer event; within the
micro heap, ties are FIFO by posting order, mirroring the outer engine's
sequence numbers.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import StatBlock, bind_counter, bind_histogram
from repro.sim.engine import EventHandle, Simulator

#: fallback reasons tracked by :attr:`BatchRealm.fallbacks` — per-packet
#: exits from the batch fast path
REASON_VOTE_BOUNDARY = "vote-boundary"
REASON_FAULT_WINDOW = "fault-window"
REASON_MIXED_HEADERS = "mixed-headers"


class BatchRealm:
    """Micro-event scheduler for packet trains (see module docstring)."""

    __slots__ = (
        "sim",
        "train",
        "_heap",
        "_seq",
        "_tick",
        "_tick_at",
        "_draining",
        "_mark",
        "_nxt",
        "batches_total",
        "packets_batched",
        "splits_total",
        "merges_total",
        "fallbacks",
        "size_counts",
        "_c_fallback",
        "_h_size",
    )

    def __init__(self, sim: Simulator, train: int) -> None:
        if train < 2:
            raise ValueError(f"batch realm needs train >= 2, got {train}")
        self.sim = sim
        self.train = train
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._tick: Optional[EventHandle] = None
        self._tick_at = math.inf
        self._draining = False
        self._mark = -1
        self._nxt = math.inf
        self.batches_total = 0
        self.packets_batched = 0
        self.splits_total = 0
        self.merges_total = 0
        self.fallbacks: Dict[str, int] = {}
        self.size_counts: Dict[int, int] = {}
        StatBlock.publish_samples(
            lambda: {
                "batch_train": self.train,
                "batches_total": self.batches_total,
                "batch_packets_total": self.packets_batched,
                "batch_splits_total": self.splits_total,
                "batch_merges_total": self.merges_total,
            }
        )
        self._c_fallback = bind_counter(
            "batch_fallback_total",
            "packets split out of a train for per-packet handling",
            labelnames=("reason",),
        )
        self._h_size = bind_histogram(
            "batch_size_packets",
            "packets per emitted train",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        sim.realm = self

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def note_batch(self, size: int) -> None:
        """Record the emission of one train of ``size`` packets."""
        self.batches_total += 1
        self.packets_batched += size
        self.size_counts[size] = self.size_counts.get(size, 0) + 1
        if self._h_size is not None:
            self._h_size.observe(size)

    def note_fallback(self, reason: str, count: int = 1) -> None:
        """Record ``count`` packets leaving the fast path for ``reason``."""
        self.splits_total += count
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + count
        if self._c_fallback is not None:
            self._c_fallback.labels(reason).inc(count)

    def stats(self) -> Dict[str, Any]:
        """Deterministic snapshot for RunReports / obs summaries."""
        return {
            "train": self.train,
            "batches_total": self.batches_total,
            "packets_batched": self.packets_batched,
            "splits_total": self.splits_total,
            "merges_total": self.merges_total,
            "fallbacks": {k: self.fallbacks[k] for k in sorted(self.fallbacks)},
            "size_counts": {
                str(k): self.size_counts[k] for k in sorted(self.size_counts)
            },
        }

    # ------------------------------------------------------------------
    # micro-event scheduling
    # ------------------------------------------------------------------
    def post(self, when: float, fn: Callable[..., None], args: tuple) -> None:
        """Schedule ``fn(*args)`` at virtual time ``when``.

        Micro-events run in global timestamp order relative to the outer
        heap; ties at identical floats run the outer event first.
        """
        heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1
        # Inside a drain the loop itself sees the new heap head; the tick
        # is only re-armed when it ends — so posts from micro context are
        # two heap ops, never an outer-heap cancel/reschedule.
        if not self._draining and when < self._tick_at:
            self._retick(when)

    def outer_next(self) -> float:
        """The outer heap's next event time, cached between schedules.

        ``sim._seq`` is bumped by every outer-heap push, so it doubles as
        a cheap change marker.  Cancellations are not tracked: they only
        push the true head later, so the cached value is at worst *early*
        — callers stop sooner than strictly necessary, never too late.
        """
        sim = self.sim
        if sim._seq != self._mark:
            self._nxt = sim.peek_time()
            self._mark = sim._seq
        return self._nxt

    def runnable(self, when: float) -> bool:
        """May a stage advance to virtual time ``when`` inline, right now?

        True only while no other micro-event and no outer event is due at
        or before ``when`` (and ``when`` is within the run horizon) — the
        barrier that keeps all shared state evolving in global time order.
        """
        heap = self._heap
        if heap and when >= heap[0][0]:
            return False
        return when <= self.sim._horizon and when < self.outer_next()

    def _retick(self, when: float) -> None:
        if self._tick is not None:
            self._tick.cancel()
        self._tick_at = when
        self._tick = self.sim.schedule_at(when, self._on_tick)

    def _on_tick(self) -> None:
        self._tick = None
        self._tick_at = math.inf
        sim = self.sim
        heap = self._heap
        horizon = sim._horizon
        self._draining = True
        if sim._seq != self._mark:
            self._nxt = sim.peek_time()
            self._mark = sim._seq
        nxt = self._nxt
        mark = self._mark
        while heap:
            when = heap[0][0]
            if when > horizon or when >= nxt:
                break
            when, _seq, fn, args = heappop(heap)
            sim.now = when
            fn(*args)
            if sim._seq != mark:
                nxt = self._nxt = sim.peek_time()
                mark = self._mark = sim._seq
        self._draining = False
        if heap:
            self._retick(heap[0][0])
