"""Differential property test for the in-place restart of a pending timer.

:meth:`repro.sim.engine.Timer.start` moves a pending event to a later
deadline in place instead of cancelling it and scheduling another; the
run loop and ``peek_time`` re-file the moved entry when it surfaces.  The
engine promises that nothing observable changes: every callback fires at
the same time and in the same order as with a timer that cancels and
schedules on every restart, and ``events_processed`` and
``pending_events`` read the same throughout.  Here a test-local eager
timer (cancel + schedule, as the engine's timer was) and the real one
run the same random program side by side: restarts to later, earlier and
equal deadlines, cancels after a move, restarts from a timer's own
callback, posted events and handle events at colliding times, a burst of
cancels that compacts the heap, ``run(until=...)`` boundaries on those
times and ``peek_time`` between them.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from hypothesis import given, settings, strategies as st

from repro.sim.engine import EventHandle, Simulator, Timer


class EagerTimer:
    """The cancel-and-schedule timer the in-place move must equal."""

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._handle: Optional[EventHandle] = None

    def start(self, delay: float) -> None:
        self.cancel()
        self._handle = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    def _fire(self) -> None:
        self._handle = None
        self._callback()


TIMERS = 3
#: every time is on a grid of exact binary fractions, so deadlines,
#: posted events, step times and ``until`` boundaries collide often
times = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0])
timer_ids = st.integers(0, TIMERS - 1)
actions = st.one_of(
    st.tuples(st.just("start"), timer_ids, times),
    st.tuples(st.just("cancel"), timer_ids),
    st.tuples(st.just("post"), times),
    st.tuples(st.just("schedule"), times, st.booleans()),
    st.tuples(st.just("churn"), times),
)
#: a step runs an action at its time (a posted event of its own)
programs = st.lists(st.tuples(times, actions), min_size=1, max_size=40)
#: how often each timer restarts itself from its callback, and how far
rearms = st.lists(st.tuples(st.integers(0, 3), times), min_size=TIMERS,
                  max_size=TIMERS)


def _run(timer_type, program, rearm, untils, churn_size: int) -> List[tuple]:
    """What one simulator does with ``program``: the log of every
    callback with its time, and the counts read at each boundary."""
    sim = Simulator()
    log: List[tuple] = []
    fired = [0] * TIMERS
    timers: list = []

    def on_timer(index: int) -> None:
        log.append(("timer", index, sim.now))
        fired[index] += 1
        count, offset = rearm[index]
        if fired[index] <= count:
            timers[index].start(offset)

    for index in range(TIMERS):
        timers.append(timer_type(sim, lambda index=index: on_timer(index)))

    def later(at: float) -> float:
        return at - sim.now if at > sim.now else 0.0

    def step(number: int, action: tuple) -> None:
        log.append(("step", number, sim.now, [t.running for t in timers]))
        kind = action[0]
        if kind == "start":
            timers[action[1]].start(later(action[2]))
        elif kind == "cancel":
            timers[action[1]].cancel()
        elif kind == "post":
            sim.post(sim.now + later(action[1]), log.append, (("post", number),))
        elif kind == "schedule":
            handle = sim.schedule(
                later(action[1]), lambda: log.append(("scheduled", number, sim.now))
            )
            if action[2]:
                handle.cancel()
        else:  # a burst of cancels: more dead entries than the heap compacts at
            for handle in [
                sim.schedule(later(action[1]), lambda: log.append(("dead", number)))
                for _ in range(churn_size)
            ]:
                handle.cancel()

    for number, (at, action) in enumerate(program):
        sim.post(at, step, (number, action))
    for until in untils:
        if until >= sim.now:
            sim.run(until=until)
        log.append(("until", until, sim.now, sim.peek_time(), sim.pending_events(),
                    sim.events_processed, [t.running for t in timers]))
    sim.run()
    log.append(("end", sim.now, sim.pending_events(), sim.events_processed,
                sim.peak_pending_events))
    return log


@given(program=programs, rearm=rearms, untils=st.lists(times, max_size=6))
@settings(max_examples=400, deadline=None)
def test_a_moved_timer_fires_as_a_rescheduled_one(program, rearm, untils):
    untils = sorted(untils)
    churn = Simulator._COMPACT_MIN_DEAD + 2
    eager = _run(EagerTimer, program, rearm, untils, churn)
    assert _run(Timer, program, rearm, untils, churn) == eager


def test_a_restart_later_moves_the_entry_and_an_earlier_one_cancels():
    """The move leaves no dead entry; a restart to an earlier deadline
    than the filed one still cancels and schedules."""
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    timer.start(2.0)
    timer.start(2.0)
    assert (len(sim._queue), sim._dead, sim.pending_events()) == (1, 0, 1)
    timer.start(1.5)  # later than the entry filed at 1.0: still a move
    assert (len(sim._queue), sim._dead) == (1, 0)
    timer.start(0.5)
    assert (len(sim._queue), sim._dead, sim.pending_events()) == (2, 1, 1)
    sim.run()
    assert fired == [0.5]
    assert sim.events_processed == 1
