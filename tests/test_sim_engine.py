"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.core.clock import PeriodicTask
from repro.sim.engine import CpuResource, SimulationError, Simulator, Timer


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, lambda: order.append("c"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.2, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_are_fifo(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(0.5, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_zero_delay_runs_after_current_instant_queue(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("nested"))

        sim.schedule(0.1, first)
        sim.schedule(0.1, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]

    def test_nan_time_rejected(self):
        """`nan < now` is False, so a `<` guard lets NaN through; it then
        fires out of order and leaves the clock at NaN."""
        sim = Simulator()
        nan = float("nan")
        for attempt in (
            lambda: sim.schedule(nan, lambda: None),
            lambda: sim.schedule_at(nan, lambda: None),
            lambda: sim.post(nan, lambda: None),
        ):
            with pytest.raises(SimulationError):
                attempt()
        assert sim.pending_events() == 0
        sim.run(until=1.0)
        assert sim.now == 1.0

    def test_post_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.post(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_post_passes_arguments_and_counts_as_an_event(self):
        sim = Simulator()
        seen = []
        sim.post(0.5, lambda a, b: seen.append((sim.now, a, b)), (1, "x"))
        assert sim.pending_events() == 1
        sim.run()
        assert seen == [(0.5, 1, "x")]
        assert sim.events_processed == 1

    def test_post_and_schedule_at_share_one_fifo(self):
        """Events at one timestamp fire in posting order whichever call
        queued them."""
        sim = Simulator()
        order = []
        for i in range(12):
            if i % 3 == 0:
                sim.schedule_at(0.5, lambda i=i: order.append(i))
            elif i % 3 == 1:
                sim.post(0.5, order.append, (i,))
            else:
                sim.schedule(0.5, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(12))


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=1.5)
        assert fired == [1]
        assert sim.now == 1.5

    def test_run_until_resumable(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=1.5)
        sim.run(until=3.0)
        assert fired == [1, 2]

    def test_run_advances_clock_to_until_even_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_max_events_guard(self):
        sim = Simulator()

        def renew():
            sim.schedule(0.1, renew)

        sim.schedule(0.1, renew)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_stop_requests_early_return(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def recurse():
            try:
                sim.run()
            except SimulationError:
                errors.append(True)

        sim.schedule(0.1, recurse)
        sim.run()
        assert errors == [True]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events() == 1

    def test_compaction_keeps_posted_entries(self):
        """Mass cancels rebuild the heap; entries without a handle (from
        `post`) must survive the rebuild and keep their order."""
        sim = Simulator()
        fired = []
        handles = []
        for i in range(300):
            if i % 3 == 0:
                sim.post(1.0 + i * 1e-3, fired.append, (i,))
            handles.append(sim.schedule(1.0 + i * 1e-3, lambda: fired.append("cancelled")))
        for handle in handles:
            handle.cancel()
        assert len(sim._queue) < 400  # compaction ran
        assert sim.pending_events() == 100
        sim.run()
        assert fired == list(range(0, 300, 3))

    def test_cancel_after_fire_is_a_no_op(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        handle.cancel()
        assert not handle.cancelled
        assert sim.pending_events() == 1


class TestTimer:
    def test_timer_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.5)
        sim.run()
        assert fired == [0.5]

    def test_timer_restart_replaces_previous(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.5)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0]

    def test_timer_cancel(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(0.5)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_timer_running_property(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.running
        timer.start(0.5)
        assert timer.running
        sim.run()
        assert not timer.running


class TestPeriodicTask:
    def test_fires_at_fixed_period(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 0.5, lambda: times.append(sim.now))
        task.start()
        sim.run(until=1.6)
        assert times == [0.0, 0.5, 1.0, 1.5]

    def test_initial_delay(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        task.start(initial_delay=0.25)
        sim.run(until=1.5)
        assert times == [0.25, 1.25]

    def test_stop_halts_firing(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 0.5, lambda: times.append(sim.now))
        task.start()
        sim.schedule(0.9, task.stop)
        sim.run(until=3.0)
        assert times == [0.0, 0.5]

    def test_callback_may_stop_task(self):
        sim = Simulator()
        count = []
        task = PeriodicTask(sim, 0.5, lambda: (count.append(1), task.stop()))
        task.start()
        sim.run(until=5.0)
        assert len(count) == 1

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)

    def test_restart_replaces_the_pending_tick(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 0.5, lambda: times.append(sim.now))
        task.start()
        task.start(initial_delay=0.25)
        sim.run(until=1.6)
        assert times == [0.25, 0.75, 1.25]
        task.stop()
        sim.run(until=3.0)
        assert times == [0.25, 0.75, 1.25]
        assert sim.pending_events() == 0

    def test_callback_may_restart_task(self):
        sim = Simulator()
        times = []

        def tick():
            times.append(sim.now)
            if len(times) == 2:
                task.start(initial_delay=0.1)

        task = PeriodicTask(sim, 0.5, tick)
        task.start()
        sim.run(until=1.7)
        assert times == [0.0, 0.5, 0.6, 1.1, 1.6]


class TestCpuResource:
    def test_idle_acquire_runs_immediately(self):
        cpu = CpuResource()
        assert cpu.acquire(1.0, 0.5) == 1.5

    def test_busy_acquire_queues(self):
        cpu = CpuResource()
        cpu.acquire(0.0, 1.0)
        assert cpu.acquire(0.5, 0.25) == 1.25

    def test_backlog(self):
        cpu = CpuResource()
        cpu.acquire(0.0, 1.0)
        assert cpu.backlog(0.25) == pytest.approx(0.75)
        assert cpu.backlog(2.0) == 0.0

    def test_busy_time_accumulates(self):
        cpu = CpuResource()
        cpu.acquire(0.0, 1.0)
        cpu.acquire(0.0, 0.5)
        assert cpu.busy_time == pytest.approx(1.5)
