"""Tests for the EventQueue tie_breaker hook (schedule perturbation)."""

from repro.events.engine import EventQueue
from repro.sanitize.schedule import SeededTieBreak, trial_seed


def drain_order(queue, n, time=5.0):
    fired = []
    for i in range(n):
        queue.schedule_at(time, lambda i=i: fired.append(i))
    queue.run()
    return fired


class TestTieBreaker:
    def test_default_is_fifo(self):
        assert drain_order(EventQueue(), 6) == list(range(6))

    def test_seeded_breaker_permutes_same_time_events(self):
        permuted = False
        for trial in range(1, 6):
            queue = EventQueue()
            queue.tie_breaker = SeededTieBreak(trial_seed(2020, trial))
            order = drain_order(queue, 6)
            assert sorted(order) == list(range(6))  # all fire exactly once
            if order != list(range(6)):
                permuted = True
        assert permuted, "no seed permuted 6 same-time events"

    def test_same_seed_same_order(self):
        orders = []
        for _ in range(2):
            queue = EventQueue()
            queue.tie_breaker = SeededTieBreak(0xDEADBEEF)
            orders.append(drain_order(queue, 8))
        assert orders[0] == orders[1]

    def test_cross_timestamp_order_untouched(self):
        queue = EventQueue()
        queue.tie_breaker = SeededTieBreak(0xDEADBEEF)
        fired = []
        for time in (30.0, 10.0, 20.0):
            queue.schedule_at(time, lambda t=time: fired.append(t))
        queue.run()
        assert fired == [10.0, 20.0, 30.0]

    def test_rank_computed_at_schedule_time(self):
        """Installing the hook mid-run only affects later schedules."""
        queue = EventQueue()
        fired = []
        for i in range(4):
            queue.schedule_at(5.0, lambda i=i: fired.append(i))
        queue.tie_breaker = SeededTieBreak(1)  # after the pushes: no effect
        queue.run()
        assert fired == [0, 1, 2, 3]

    def test_handles_and_cancellation_work_under_permutation(self):
        queue = EventQueue()
        queue.tie_breaker = SeededTieBreak(trial_seed(2020, 1))
        fired = []
        handles = [queue.schedule_at(5.0, lambda i=i: fired.append(i))
                   for i in range(6)]
        handles[2].cancel()
        queue.run()
        assert 2 not in fired
        assert sorted(fired) == [0, 1, 3, 4, 5]
