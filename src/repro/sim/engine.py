"""Discrete-event simulation kernel.

The entire NetCo reproduction runs on top of this engine: links, switch
datapaths, the compare element, traffic generators and controller channels
all schedule callbacks on a single shared :class:`Simulator`.

Time is kept as a float number of *seconds* of simulated time.  The engine
is deterministic: events scheduled at the same timestamp fire in the order
they were scheduled (FIFO tie-breaking via a monotonically increasing
sequence number), and all randomness flows through seeded
:class:`repro.sim.rng.RngStreams`.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, List, Optional, Tuple

from repro.core.clock import SimulationError


class EventHandle:
    """A cancellable scheduled callback, returned by :meth:`Simulator.schedule`.

    The only object a cancellable event allocates, it rides in the fifth
    field of its heap entry, filed at ``_filed``.  The event fires at
    ``(time, seq)``: the entry's key until :meth:`Timer.start` moves it
    later in place.  An entry whose ``seq`` is not its handle's is re-filed
    at that key when it surfaces, or dropped if cancelled (``seq`` -1).
    ``_sim`` is cleared once the event has fired or been cancelled, so a
    late ``cancel()`` is a no-op.
    """

    __slots__ = ("time", "seq", "cancelled", "_filed", "_sim")

    def __init__(self, time: float, seq: int, sim: "Simulator") -> None:
        self.time = self._filed = time
        self.seq = seq
        self.cancelled = False
        self._sim: Optional["Simulator"] = sim

    def cancel(self) -> None:
        """Cancel the event if it has not fired yet (idempotent)."""
        sim = self._sim
        if sim is not None:
            self._sim = None
            self.cancelled, self.seq = True, -1
            sim._note_cancel()


class Simulator:
    """A deterministic event-driven simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, lambda: print("fires at t=0.5s"))
        sim.run(until=1.0)
    """

    # Compact when cancelled entries dominate the heap and pay for the rebuild
    _COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        #: current simulated time in seconds: a plain attribute, written
        #: by the run loop (and the batch realm) and read on every hop
        self.now = 0.0
        #: heap of ``(when, seq, fn, args, handle-or-None)``: ordering is
        #: decided by the float/int prefix, so simultaneous events fire in
        #: scheduling order (``seq`` is unique; later fields never compare)
        self._queue: List[Tuple[float, int, Callable[..., None], tuple, Optional[EventHandle]]] = []
        self._seq = 0
        self._live = 0  # queued, non-cancelled events (O(1) pending_events)
        self._dead = 0  # cancelled events still sitting in the heap
        self._peak_pending = 0  # high-water mark of _live (telemetry)
        self._running = False
        self._events_processed = 0
        self._stop_requested = False
        #: attached :class:`repro.sim.realm.BatchRealm` (packet-train tier),
        #: or None when the run is purely event-per-packet
        self.realm = None
        #: the ``until`` horizon of the active :meth:`run` call; the batch
        #: realm must not advance virtual time past it
        self._horizon = math.inf

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (telemetry/debugging)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay schedules the callback
        to run after all events already queued for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        # `not >=` rather than `<`: it rejects NaN as well as the past.
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule into the past (now={self.now}, when={when})"
            )
        handle = EventHandle(when, self._seq, self)
        heappush(self._queue, (when, self._seq, callback, (), handle))
        self._seq += 1
        self._live += 1
        if self._live > self._peak_pending:
            self._peak_pending = self._live
        return handle

    def post(self, when: float, fn: Callable[..., None], args: tuple = ()) -> None:
        """Fire-and-forget ``fn(*args)`` at absolute time ``when``.

        The per-packet form of :meth:`schedule_at` — no handle, no closure,
        the same FIFO order among simultaneous events.  With a batch realm
        attached the event goes to its micro heap, so single packets
        interleave with train packets in global time order.
        """
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule into the past (now={self.now}, when={when})"
            )
        if self.realm is not None:
            self.realm.post(when, fn, args)
            return
        # The push is spelled out here and in schedule_at, not shared: a
        # helper would be one more Python frame on every event.
        heappush(self._queue, (when, self._seq, fn, args, None))
        self._seq += 1
        self._live += 1
        if self._live > self._peak_pending:
            self._peak_pending = self._live

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in timestamp order.

        Args:
            until: stop once the clock would pass this simulated time; the
                clock is advanced to ``until`` on return.  ``None`` runs to
                queue exhaustion.
            max_events: safety valve; raise :class:`SimulationError` if more
                than this many events execute (useful to catch runaway
                retransmission loops in tests).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        self._horizon = until if until is not None else math.inf
        executed = 0
        queue = self._queue
        try:
            while queue:
                if self._stop_requested:
                    break
                when, seq, fn, args, handle = queue[0]
                if handle is not None and handle.seq != seq:
                    self._refile(handle)
                    continue
                if until is not None and when > until:
                    break
                heappop(queue)
                self._live -= 1
                self.now = when
                if handle is not None:
                    handle._sim = None  # fired: a late cancel() is a no-op
                fn(*args)
                self._events_processed += 1
                executed += 1
                if max_events is not None and executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway event loop?"
                    )
            if until is not None and not self._stop_requested and self.now < until:
                self.now = until
        finally:
            self._running = False
            self._horizon = math.inf

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    def peek_time(self) -> float:
        """Timestamp of the next live queued event (``inf`` when empty).

        Cancelled entries sitting on top of the heap are popped on the
        way — they would never fire anyway — and moved ones re-filed.  Used
        by the batch realm to bound how far its micro-events may run ahead.
        """
        queue = self._queue
        while queue:
            when, seq, _fn, _args, handle = queue[0]
            if handle is not None and handle.seq != seq:
                self._refile(handle)
                continue
            return when
        return math.inf

    def pending_events(self) -> int:
        """Number of queued (non-cancelled) events."""
        return self._live

    @property
    def peak_pending_events(self) -> int:
        """High-water mark of the pending-event count (telemetry)."""
        return self._peak_pending

    def _refile(self, handle: EventHandle) -> None:
        """Drop a cancelled top entry, or re-file a moved one (no event)."""
        queue = self._queue
        if handle.cancelled:
            heappop(queue)
            self._dead -= 1
        else:
            handle._filed = handle.time
            heapreplace(queue, (handle.time, handle.seq) + queue[0][2:])

    def _note_cancel(self) -> None:
        """Bookkeeping for an EventHandle.cancel(); may compact the heap."""
        self._live -= 1
        self._dead += 1
        if self._dead > self._COMPACT_MIN_DEAD and self._dead * 2 > len(self._queue):
            # In place: run() iterates over the same list object.
            self._queue[:] = [
                item for item in self._queue if item[4] is None or not item[4].cancelled
            ]
            heapify(self._queue)
            self._dead = 0


class CpuResource:
    """A single-server processing resource with FIFO queueing.

    Used to model a shared CPU: Mininet runs every software switch on the
    same machine, so per-packet datapath work from *different* switches
    serialises.  ``acquire`` books ``duration`` seconds of service
    starting no earlier than ``now`` and returns the completion time.
    """

    __slots__ = ("name", "_busy_until", "busy_time")

    def __init__(self, name: str = "cpu") -> None:
        self.name = name
        self._busy_until = 0.0
        self.busy_time = 0.0

    def acquire(self, now: float, duration: float) -> float:
        busy = self._busy_until
        finish = (now if now > busy else busy) + duration
        self._busy_until = finish
        self.busy_time += duration
        return finish

    def backlog(self, now: float) -> float:
        """Seconds of queued work ahead of a new arrival."""
        return max(0.0, self._busy_until - now)


class Timer:
    """A restartable one-shot timer bound to a simulator (TCP's RTO).

    A restart no earlier than the pending entry moves it in place: it then
    fires at the ``(time, seq)``, so in the order, a cancel and a new
    schedule would give, with the same event and pending counts.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._handle: Optional[EventHandle] = None

    def start(self, delay: float) -> None:
        """(Re)start the timer to fire ``delay`` seconds from now."""
        handle, sim = self._handle, self._sim
        if handle is not None and handle._sim is not None:
            when = sim.now + delay
            if when >= handle._filed:  # never for NaN or delay < 0
                handle.time, handle.seq = when, sim._seq  # as schedule_at would
                sim._seq += 1
                return
        self.cancel()
        self._handle = sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Stop the timer if running (idempotent)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def _fire(self) -> None:
        self._handle = None
        self._callback()
