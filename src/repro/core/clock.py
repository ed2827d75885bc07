"""What a voter needs of time: a clock, and a task that re-arms on it.

The voter reads ``now``, posts the serve step of a queued copy and
re-arms its expiry sweep; nothing else of the event engine runs in the
trusted element.  :class:`Clock` names those three members, which
:class:`repro.sim.engine.Simulator` (simulated time) and
:class:`repro.transport.realtime.RealTimeScheduler` (an asyncio loop)
both have, so this module, not the engine, is what the voter loads.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol


class SimulationError(Exception):
    """Raised for a use no clock can serve: scheduling into the past, or a
    periodic task with a non-positive period."""


class Clock(Protocol):
    """A clock the voter runs on, declared as members (no method stubs for
    nothing to call; ``now`` is an attribute or a property)."""

    #: the current time in seconds
    now: float
    #: ``schedule(delay, callback)`` -> a handle with ``cancel()``
    schedule: Callable[[float, Callable[[], None]], Any]
    #: ``post(when, fn, args)``: fire-and-forget ``fn(*args)`` at ``when``
    post: Callable[[float, Callable[..., None], tuple], None]


class PeriodicTask:
    """Invoke a callback at a fixed period of a :class:`Clock` until
    stopped."""

    def __init__(self, sim: Clock, period: float, callback: Callable[[], None]) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive (got {period})")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._handle: Optional[Any] = None
        #: a plain attribute, not a property: voters test it once per copy
        self.running = False

    def start(self, initial_delay: float = 0.0) -> None:
        """(Re)start the task: a pending tick is cancelled, as
        :meth:`repro.sim.engine.Timer.start` does, so one chain of ticks
        runs."""
        if self._handle is not None:
            self._handle.cancel()
        self.running = True
        self._handle = self._sim.schedule(initial_delay, self._tick)

    def stop(self) -> None:
        self.running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        self._handle = None
        if not self.running:
            return
        self._callback()
        # the callback may stop the task, or restart it (which scheduled
        # the next tick already)
        if not self.running or self._handle is not None:
            return
        self._handle = self._sim.schedule(self._period, self._tick)
