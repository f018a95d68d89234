"""Drain-order and bookkeeping invariants of the binary-heap event queue.

Every case runs with the production FIFO schedule and with a seeded
same-timestamp permutation (:class:`SeededTieBreak`): the executed order
must be ``(time, tiebreak, seq)`` either way, ``pending`` must match a
ground-truth recount after every dispatch, and the watcher must fire
once per dispatch however far apart events are.
"""

import pytest

from repro.events.engine import EventQueue
from repro.sanitize.schedule import SeededTieBreak

TIE_BREAKERS = [None, SeededTieBreak(0xC0FFEE)]
TIE_IDS = ["fifo", "seeded"]


def _delay(i: int) -> float:
    """Deterministic pseudo-random spacing (integer hash, no RNG)."""
    return float((i * 2654435761 >> 7) % 997 + 1)


def make_queue(tie_breaker) -> EventQueue:
    q = EventQueue()
    q.tie_breaker = tie_breaker
    return q


def expected_order(times: list[float], tie_breaker) -> list[int]:
    """Indices of ``times`` in ``(time, tiebreak, seq)`` order, for events
    scheduled in index order on a fresh queue (so seq == index)."""
    def key(i: int) -> tuple:
        rank = 0 if tie_breaker is None else tie_breaker(times[i], i)
        return (times[i], rank, i)
    return sorted(range(len(times)), key=key)


@pytest.mark.parametrize("tie_breaker", TIE_BREAKERS, ids=TIE_IDS)
class TestHeapOrder:
    def test_drain_order_is_time_tiebreak_seq(self, tie_breaker):
        q = make_queue(tie_breaker)
        times = [_delay(i) for i in range(512)]
        fired = []
        for i, t in enumerate(times):
            q.schedule_at(t, lambda i=i: fired.append(i))
        q.run()
        assert fired == expected_order(times, tie_breaker)

    def test_far_future_events_interleave_in_order(self, tie_breaker):
        """Far-future events (watchdog deadlines, timeout guards) sit in
        the same heap as near-term traffic and interleave by
        ``(time, seq)``."""
        q = make_queue(tie_breaker)
        times = [_delay(i) for i in range(128)]
        times += [1e15 + _delay(i) for i in range(32)]
        fired = []
        for i, t in enumerate(times):
            q.schedule_at(t, lambda i=i: fired.append(i))
        assert q.pending == q.live_count() == 160
        q.run()
        assert fired == expected_order(times, tie_breaker)

    def test_cancelled_far_future_entries_accounted(self, tie_breaker):
        q = make_queue(tie_breaker)
        for i in range(64):
            q.schedule_at(_delay(i), lambda: None)
        far = [q.schedule_at(1e15 + i, lambda: None) for i in range(16)]
        for handle in far[::2]:
            handle.cancel()
        assert q.pending == q.live_count() == 64 + 8
        q.run()
        assert q.pending == q.live_count() == 0

    def test_pending_matches_live_count_under_churn(self, tie_breaker):
        """Incremental ``pending`` vs ground-truth recount, checked after
        every dispatch via the watcher hook."""
        q = make_queue(tie_breaker)
        state = {"i": 0}

        def churn() -> None:
            i = state["i"]
            if i >= 400:
                return
            state["i"] = i + 1
            handle = q.schedule(_delay(i), churn)
            if i % 3 == 0:
                handle.cancel()
                churn()

        def check_no_drift(queue: EventQueue) -> None:
            assert queue.pending == queue.live_count(), "pending drift"

        q.watcher = check_no_drift
        for i in range(32):
            state["i"] += 1
            q.schedule(_delay(i), churn)
        q.run()
        assert q.events_processed > 32
        assert q.pending == q.live_count() == 0

    def test_watcher_once_per_dispatch_across_gaps(self, tie_breaker):
        q = make_queue(tie_breaker)
        ticks = []
        q.watcher = lambda queue: ticks.append(queue.now)
        for i in range(64):
            q.schedule_at(float(i), lambda: None)
        for i in range(4):
            q.schedule_at(1e7 + i * 1e6, lambda: None)
        q.run()
        assert len(ticks) == q.events_processed == 68
        assert ticks == sorted(ticks)

    def test_run_until_never_rewinds(self, tie_breaker):
        q = make_queue(tie_breaker)
        seen = []
        for i in range(256):
            q.schedule_at(_delay(i), lambda: seen.append(q.now))
        q.run(until=300.0)
        assert q.now <= 300.0
        assert all(t <= 300.0 for t in seen)
        boundary = len(seen)
        q.run()
        assert all(t > 300.0 for t in seen[boundary:])
        assert seen == sorted(seen)
        assert len(seen) == 256
