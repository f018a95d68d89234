"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.events import CountdownBarrier, EventQueue


class TestEventQueue:
    def test_starts_at_time_zero(self):
        assert EventQueue().now == 0.0

    def test_executes_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule_at(5.0, lambda: fired.append("late"))
        q.schedule_at(2.0, lambda: fired.append("early"))
        q.schedule_at(3.5, lambda: fired.append("middle"))
        q.run()
        assert fired == ["early", "middle", "late"]

    def test_same_time_events_fire_fifo(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule_at(1.0, lambda i=i: fired.append(i))
        q.run()
        assert fired == list(range(10))

    def test_now_advances_to_event_time(self):
        q = EventQueue()
        seen = []
        q.schedule_at(7.0, lambda: seen.append(q.now))
        q.run()
        assert seen == [7.0]
        assert q.now == 7.0

    def test_schedule_relative_delay(self):
        q = EventQueue()
        seen = []
        q.schedule_at(10.0, lambda: q.schedule(5.0, lambda: seen.append(q.now)))
        q.run()
        assert seen == [15.0]

    def test_schedule_in_past_rejected(self):
        q = EventQueue()
        q.schedule_at(10.0, lambda: None)
        q.run()
        with pytest.raises(SimulationError):
            q.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_cancellation(self):
        q = EventQueue()
        fired = []
        handle = q.schedule_at(1.0, lambda: fired.append("cancelled"))
        q.schedule_at(2.0, lambda: fired.append("kept"))
        handle.cancel()
        q.run()
        assert fired == ["kept"]
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        handle = q.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        q.run()

    def test_run_until_horizon_inclusive(self):
        q = EventQueue()
        fired = []
        q.schedule_at(1.0, lambda: fired.append(1))
        q.schedule_at(2.0, lambda: fired.append(2))
        q.schedule_at(3.0, lambda: fired.append(3))
        q.run(until=2.0)
        assert fired == [1, 2]
        assert q.now == 2.0
        assert q.pending == 1

    def test_run_resumes_after_horizon(self):
        q = EventQueue()
        fired = []
        q.schedule_at(1.0, lambda: fired.append(1))
        q.schedule_at(5.0, lambda: fired.append(5))
        q.run(until=2.0)
        q.run()
        assert fired == [1, 5]

    def test_max_events_guard(self):
        q = EventQueue()

        def reschedule():
            q.schedule(1.0, reschedule)

        q.schedule(1.0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            q.run(max_events=100)

    def test_events_processed_counter(self):
        q = EventQueue()
        for _ in range(7):
            q.schedule(1.0, lambda: None)
        q.run()
        assert q.events_processed == 7

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_step_skips_cancelled(self):
        q = EventQueue()
        h = q.schedule_at(1.0, lambda: None)
        h.cancel()
        assert q.step() is False

    def test_reset(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.run()
        q.reset()
        assert q.now == 0.0
        assert q.pending == 0
        assert q.events_processed == 0

    def test_events_scheduled_during_run_execute(self):
        q = EventQueue()
        fired = []
        q.schedule_at(1.0, lambda: q.schedule(1.0, lambda: fired.append("chained")))
        q.run()
        assert fired == ["chained"]

    def test_same_time_in_handler_schedule_fires_in_same_pass(self):
        """An event scheduled *at the current time* from inside a handler
        must fire in the same drain pass, after everything already queued
        for that timestamp — the determinism a fault flip racing a send
        at the same cycle relies on."""
        q = EventQueue()
        fired = []
        q.schedule_at(5.0, lambda: (fired.append("first"),
                                    q.schedule(0.0, lambda: fired.append("nested"))))
        q.schedule_at(5.0, lambda: fired.append("second"))
        q.run()
        assert fired == ["first", "second", "nested"]
        assert q.now == 5.0

    def test_fired_property_set_on_execution(self):
        q = EventQueue()
        handle = q.schedule_at(1.0, lambda: None)
        assert not handle.fired
        q.run()
        assert handle.fired

    def test_cancel_after_fire_is_noop(self):
        """Cancelling an already-fired event (a delivery timer racing its
        message) must neither mark it cancelled nor skew ``pending``."""
        q = EventQueue()
        handle = q.schedule_at(1.0, lambda: None)
        keep = q.schedule_at(2.0, lambda: None)
        q.run(until=1.0)
        handle.cancel()
        assert not handle.cancelled
        assert q.pending == 1
        q.run()
        assert keep.fired

    def test_run_until_past_does_not_rewind(self):
        q = EventQueue()
        q.schedule_at(10.0, lambda: None)
        q.run()
        assert q.now == 10.0
        q.schedule_at(50.0, lambda: None)
        q.run(until=3.0)
        assert q.now == 10.0
        assert q.pending == 1

    def test_run_not_reentrant(self):
        q = EventQueue()
        errors = []

        def nested():
            try:
                q.run()
            except SimulationError as exc:
                errors.append(exc)

        q.schedule(1.0, nested)
        q.run()
        assert len(errors) == 1

    def test_handle_reports_time(self):
        q = EventQueue()
        handle = q.schedule_at(42.0, lambda: None)
        assert handle.time == 42.0


class TestCountdownBarrier:
    def test_fires_after_count_arrivals(self):
        done = []
        barrier = CountdownBarrier(3, lambda: done.append(True))
        barrier.arrive()
        barrier.arrive()
        assert not done
        barrier.arrive()
        assert done == [True]

    def test_zero_count_fires_immediately(self):
        done = []
        CountdownBarrier(0, lambda: done.append(True))
        assert done == [True]

    def test_over_arrival_rejected(self):
        barrier = CountdownBarrier(1, lambda: None)
        barrier.arrive()
        with pytest.raises(SimulationError):
            barrier.arrive()

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            CountdownBarrier(-1, lambda: None)

    def test_remaining_and_done(self):
        barrier = CountdownBarrier(2, lambda: None)
        assert barrier.remaining == 2
        assert not barrier.done
        barrier.arrive()
        assert barrier.remaining == 1
        barrier.arrive()
        assert barrier.done


class TestPendingCount:
    """``pending`` counts live events only; cancelled ones are excluded."""

    def test_pending_excludes_cancelled(self):
        q = EventQueue()
        handles = [q.schedule_at(float(i + 1), lambda: None) for i in range(4)]
        assert q.pending == 4
        handles[1].cancel()
        handles[2].cancel()
        assert q.pending == 2
        assert q.heap_size == 4  # lazily-cancelled entries stay in the heap

    def test_cancel_idempotence_counts_once(self):
        q = EventQueue()
        h = q.schedule_at(1.0, lambda: None)
        h.cancel()
        h.cancel()
        assert q.pending == 0
        assert q.heap_size == 1

    def test_pending_after_discarding_cancelled(self):
        q = EventQueue()
        live = []
        h = q.schedule_at(1.0, lambda: live.append("no"))
        q.schedule_at(2.0, lambda: live.append("yes"))
        h.cancel()
        q.run()
        assert live == ["yes"]
        assert q.pending == 0
        assert q.heap_size == 0

    def test_pending_partial_drain(self):
        q = EventQueue()
        h = q.schedule_at(1.0, lambda: None)
        q.schedule_at(2.0, lambda: None)
        q.schedule_at(3.0, lambda: None)
        h.cancel()
        q.run(until=2.0)
        assert q.pending == 1


class TestResetDeterminism:
    """``reset`` restores the queue to a fresh-construction state."""

    def test_reset_restarts_sequence_numbers(self):
        def trace(q):
            order = []
            for name in ("a", "b", "c"):
                q.schedule_at(1.0, lambda name=name: order.append(name))
            q.run()
            return order

        q = EventQueue()
        first = trace(q)
        q.reset()
        second = trace(q)
        assert first == second == ["a", "b", "c"]

    def test_reset_clears_cancelled_count(self):
        q = EventQueue()
        q.schedule_at(1.0, lambda: None).cancel()
        q.reset()
        assert q.pending == 0
        assert q.heap_size == 0
        q.schedule_at(1.0, lambda: None)
        assert q.pending == 1
