"""Wall-clock scheduler with the DES ``Simulator`` surface.

:class:`CompareCore`, :class:`~repro.core.clock.PeriodicTask` and the
quarantine machinery only touch ``sim.now``, ``sim.schedule`` and
``sim.post`` (a :class:`~repro.core.clock.Clock`); this adapter maps
those, ``schedule_at`` and ``realm`` onto an asyncio event loop so the
*same* voting code runs unmodified in a real-time process.  ``now`` is
seconds since the scheduler was created (``loop.time()`` is monotonic),
which keeps compare timestamps small and comparable with DES run
timelines.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional


class _Handle:
    """Duck-types :class:`repro.sim.engine.EventHandle`."""

    __slots__ = ("_timer", "_cancelled")

    def __init__(self, timer: asyncio.TimerHandle) -> None:
        self._timer = timer
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._timer.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class RealTimeScheduler:
    """``Simulator``-shaped facade over an asyncio loop."""

    #: no micro-event batching realm in real time
    realm = None

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop = loop or asyncio.get_event_loop()
        # asyncio's own loops answer ``time()`` with ``time.monotonic()``
        # from a Python-level method: read the clock itself then
        self._clock = (
            time.monotonic
            if type(loop).time is asyncio.BaseEventLoop.time
            else loop.time
        )
        self._t0 = self._clock()

    @property
    def now(self) -> float:
        """Seconds since the scheduler was created, on the loop's clock:
        a voter reads it once per copy and hands it down."""
        return self._clock() - self._t0

    def schedule(self, delay: float, callback: Callable[[], None]) -> _Handle:
        return _Handle(self._loop.call_later(max(0.0, delay), callback))

    def schedule_at(self, when: float, callback: Callable[[], None]) -> _Handle:
        return self.schedule(when - self.now, callback)

    def post(self, when: float, fn: Callable[..., None], args: tuple = ()) -> None:
        self._loop.call_later(max(0.0, when - self.now), fn, *args)
