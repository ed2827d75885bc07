"""The voter keeps time on a :class:`repro.core.clock.Clock`, nothing more.

A test-local clock with the three members the protocol names (``now``,
``post``, ``schedule``, and handles that ``cancel()``) drives a stock
:class:`CompareCore` through a release, an expiry and the end of its
sweep, with no event engine behind it.  That the voter's modules load no
``repro.sim`` module at all is ``tests/test_import_order.py``'s check.
"""

from types import SimpleNamespace

from repro.core.alarms import ALARM_SINGLE_SOURCE_PACKET
from repro.core.compare import CompareConfig, CompareContext, CompareCore


class FakeClock:
    """Events in a list, fired in time order (ties in posting order)."""

    def __init__(self):
        self.now, self.due = 0.0, []

    def post(self, when, fn, args=()):
        self.due.append(event := SimpleNamespace(when=when, fire=lambda: fn(*args)))
        event.cancel = lambda: self.due.remove(event)
        return event

    def schedule(self, delay, callback):
        return self.post(self.now + delay, callback)

    def advance(self, until):
        while self.due and (event := min(self.due, key=lambda e: e.when)).when <= until:
            self.now = self.due.pop(self.due.index(event)).when
            event.fire()
        self.now = until


class Copy:
    """What the compare votes on: bytes, a wire length and a span id."""

    def __init__(self, data: bytes):
        self.data, self.wire_len, self.trace_id = data, len(data), None

    def to_bytes(self) -> bytes:
        return self.data


def test_a_fake_clock_drives_the_voter():
    clock = FakeClock()
    released = []
    core = CompareCore(clock, CompareConfig(k=3, buffer_timeout=1.0))
    context = CompareContext("edge", released.append)
    honest, lone = Copy(b"honest"), Copy(b"lone")

    # a majority of the three branches releases its copy at once
    core.submit(honest, 0, context)
    assert released == [] and len(clock.due) == 1  # the sweep is armed
    core.submit(honest, 1, context)
    assert released == [honest]
    clock.advance(0.25)
    core.submit(lone, 2, context)  # one branch alone: never released

    # the first tick expires the released entry only; the second expires
    # the lone copy unreleased, and alarms on its single source
    clock.advance(1.0)
    assert len(core.book) == 1 and core.alarms.count() == 0
    clock.advance(2.0)
    assert released == [honest]
    assert core.alarms.count(ALARM_SINGLE_SOURCE_PACKET) == 1
    assert core.alarms.of_kind(ALARM_SINGLE_SOURCE_PACKET)[0].branch == 2

    # an empty book stops the sweep: nothing is left to fire
    assert len(core.book) == 0 and clock.due == []
    clock.advance(10.0)
    assert clock.due == [] and core.alarms.count() == 1
