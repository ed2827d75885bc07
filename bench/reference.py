"""The host-speed reference: what turns a measured time into a steady one.

This host is a few cores of a shared machine, and its speed moves by
tens of per cent within a second and again over minutes (the same DES
slice read 196 ms and 326 ms two minutes apart; CPU time moved with wall
time, so the processor itself was slower).  No estimator over raw times
is steady on it.  So every timing the benchmark reports is taken beside
a fixed **reference kernel** — a small event loop of the program's own
kind of work (heap, dict, slotted objects, ``struct`` and ``bytes``) that
lives here, outside the program, and that a change to the program cannot
touch — and is reported in *reference-host seconds*::

    reported = measured × NOMINAL_S / (reference kernel's time just then)

``NOMINAL_S`` is what the kernel usually takes on this host, so a
reported second is a second of that host on an ordinary day.  A program that gets 20 %
faster reads 20 % lower; a host that gets 20 % slower reads the same.

Two ways to take the reference, because it has to run *while* the work
runs (a 2-second unit bracketed by two samples correlated with them at
0.3; 0.2-second slices at 0.9):

:class:`Meter`
    for work on the measuring thread: the workload calls ``tick()`` at
    every slice boundary, the kernel runs there, and each slice is
    normalised by the mean of the kernel times at its two ends.
:class:`Sampler`
    for work in other processes (the farm's pool): a thread of the
    otherwise idle parent runs the kernel every quarter second and
    reads its *thread CPU time*, which waiting for a core does not
    inflate; the unit is normalised by the median sample.
"""

from __future__ import annotations

import heapq
import statistics
import struct
import threading
import time
from typing import Callable, List, Optional, Tuple

#: the kernel's usual time on this host; fixes the unit and nothing else
NOMINAL_S = 0.012

_HEADER = struct.Struct("!IHH")
_BODY = bytes(64)


class _Event:
    __slots__ = ("due", "seq", "callback", "argument")

    def __init__(self, due: float, seq: int, callback, argument: int) -> None:
        self.due = due
        self.seq = seq
        self.callback = callback
        self.argument = argument


def kernel(events: int = 6000) -> int:
    """A fixed piece of work of the program's kind; never changed."""
    heap: list = []
    table: dict = {}
    total = 0

    def handle(argument: int) -> None:
        nonlocal total
        key = (argument & 1023, argument % 7)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [0, 0]
        entry[0] += 1
        frame = _HEADER.pack(argument, argument & 0xFFFF, 7) + _BODY
        entry[1] += len(frame)
        total += frame[3]

    for seq in range(events):
        due = seq * 0.37 % 1.0
        heapq.heappush(heap, (due, seq, _Event(due, seq, handle, seq)))
    while heap:
        event = heapq.heappop(heap)[2]
        event.callback(event.argument)
    return total


def kernel_s(clock: Callable[[], float] = time.perf_counter) -> float:
    """One reading of the reference kernel, in seconds of ``clock``."""
    start = clock()
    kernel()
    return clock() - start


def no_tick() -> None:
    """The slice boundaries of a run that is not being timed."""


def normalise(measured_s: float, reference_s: float) -> float:
    """``measured_s`` in reference-host seconds."""
    return measured_s * NOMINAL_S / reference_s


class Meter:
    """Times a unit in slices; ``tick()`` marks every slice boundary."""

    def __init__(self) -> None:
        #: ``(raw seconds, reference-host seconds)`` per slice
        self.slices: List[Tuple[float, float]] = []
        self.references: List[float] = []
        self._resumed: Optional[float] = None

    def tick(self) -> None:
        now = time.perf_counter()
        reference = kernel_s()
        if self._resumed is not None:
            raw = now - self._resumed
            ends = (self.references[-1] + reference) / 2.0
            self.slices.append((raw, normalise(raw, ends)))
        self.references.append(reference)
        self._resumed = time.perf_counter()


class Sampler(threading.Thread):
    """Reads the kernel's thread CPU time every ``interval`` seconds
    while another process does the work; first reading at once."""

    def __init__(self, interval: float = 0.25) -> None:
        super().__init__(daemon=True)
        self.interval = interval
        self.references: List[float] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        while True:
            self.references.append(kernel_s(time.thread_time))
            if self._stop_event.wait(self.interval):
                return

    def stop(self) -> float:
        """End the thread; the median reading."""
        self._stop_event.set()
        self.join()
        return statistics.median(self.references)
