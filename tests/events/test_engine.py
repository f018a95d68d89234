"""Unit tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.events.engine import CountdownBarrier, EventQueue
from repro.sanitize.schedule import SeededTieBreak, fifo_rank


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


def _recorder(fired: list, name):
    return lambda: fired.append(name)


class TestSameTimeBuckets:
    """Every entry of one time shares that time's bucket and fires in
    schedule order, one event each, whether it came from ``at`` or
    ``schedule_at``."""

    def test_same_time_entries_fire_in_order(self):
        q = EventQueue()
        fired: list = []
        for i in range(5):
            q.at(3.0, _recorder(fired, i))
        assert q.pending == q.live_count() == 5
        q.run()
        assert fired == [0, 1, 2, 3, 4]
        assert q.now == 3.0
        assert q.events_processed == q.events_simulated == 5

    def test_entries_fire_in_time_order(self):
        q = EventQueue()
        fired: list = []
        q.at(2.0, _recorder(fired, "a"))
        q.at(1.0, _recorder(fired, "b"))
        q.at(1.0, _recorder(fired, "c"))
        q.run()
        assert fired == ["b", "c", "a"]
        assert (q.events_processed, q.events_simulated) == (3, 3)

    def test_at_and_schedule_at_fire_in_schedule_order(self):
        q = EventQueue()
        fired: list = []
        q.at(1.0, _recorder(fired, "a"))
        q.schedule_at(1.0, _recorder(fired, "b"))
        q.at(1.0, _recorder(fired, "c"))
        assert q.pending == 3
        q.run()
        assert fired == ["a", "b", "c"]
        assert (q.events_processed, q.events_simulated) == (3, 3)

    def test_entry_from_a_callback_fires_after_queued_ones(self):
        q = EventQueue()
        fired: list = []

        def first() -> None:
            fired.append("first")
            q.at(q.now, _recorder(fired, "child"))

        q.at(1.0, first)
        q.at(1.0, _recorder(fired, "second"))
        q.schedule_at(1.0, _recorder(fired, "third"))
        q.run()
        assert fired == ["first", "second", "third", "child"]
        assert (q.events_processed, q.events_simulated) == (4, 4)

    def test_entry_added_at_its_own_time_by_an_earlier_event(self):
        """An event of time t adds an ``at`` entry for t to a bucket that
        still holds entries: it fires after them."""
        q = EventQueue()
        fired: list = []
        q.schedule_at(1.0, lambda: q.at(1.0, _recorder(fired, "late")))
        q.at(1.0, _recorder(fired, "queued"))
        q.run()
        assert fired == ["queued", "late"]
        assert (q.events_processed, q.events_simulated) == (3, 3)

    @pytest.mark.parametrize("hook", [fifo_rank, SeededTieBreak(7)],
                             ids=["fifo", "seeded"])
    def test_tie_breaker_ranks_at_entries(self, hook):
        q = EventQueue()
        q.tie_breaker = hook
        fired: list = []
        for i in range(4):
            q.at(1.0, _recorder(fired, i))
        assert q.pending == 4
        q.run()
        assert (q.events_processed, q.events_simulated) == (4, 4)
        ranks = [hook(1.0, seq) for seq in range(4)]
        assert fired == sorted(range(4), key=lambda seq: (ranks[seq], seq))

    def test_at_in_the_past_rejected(self):
        q = EventQueue()
        q.at(2.0, lambda: None)
        q.run()
        with pytest.raises(SimulationError, match="before current time"):
            q.at(1.0, lambda: None)
        assert q.pending == 0


class TestRaisingCallback:
    def test_rest_of_its_time_stays_queued_in_place(self):
        """The exception escapes ``run``; the entries behind the raising
        one keep their place, ahead of a later same-time event, and the
        next ``run`` fires them."""
        q = EventQueue()
        fired: list = []

        def boom() -> None:
            fired.append("boom")
            raise RuntimeError("callback failed")

        q.at(1.0, _recorder(fired, "a"))
        q.at(1.0, boom)
        q.at(1.0, _recorder(fired, "c"))
        q.at(1.0, _recorder(fired, "d"))
        q.schedule_at(1.0, _recorder(fired, "later"))
        with pytest.raises(RuntimeError, match="callback failed"):
            q.run()
        assert fired == ["a", "boom"]
        assert q.events_simulated == 2
        assert q.pending == 3
        q.at(1.0, _recorder(fired, "added"))
        q.run()
        assert fired == ["a", "boom", "c", "d", "later", "added"]
        assert q.events_processed == q.events_simulated == 6

    def test_raising_last_entry_leaves_nothing_queued(self):
        q = EventQueue()

        def boom() -> None:
            raise RuntimeError("last")

        q.at(1.0, lambda: None)
        q.at(1.0, boom)
        with pytest.raises(RuntimeError):
            q.run()
        assert q.pending == 0
        assert q.events_simulated == 2
        assert q.step() is False


class TestStopsWithinOneTime:
    def test_max_events_stops_within_one_time(self):
        """The budget stops the drain between two entries of one time;
        the next run resumes with the first unfired one."""
        q = EventQueue()
        fired: list = []
        for i in range(10):
            q.at(1.0, _recorder(fired, i))
        q.schedule_at(2.0, _recorder(fired, "next"))
        with pytest.raises(SimulationError, match="max_events=5"):
            q.run(max_events=5)
        assert fired == [0, 1, 2, 3, 4]
        assert (q.events_processed, q.events_simulated) == (5, 5)
        assert q.pending == 6
        q.run()
        assert fired == list(range(10)) + ["next"]

    def test_max_events_puts_a_scheduled_event_back_unfired(self):
        q = EventQueue()
        q.at(1.0, lambda: None)
        handle = q.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="max_events=1"):
            q.run(max_events=1)
        assert not handle.fired
        assert q.pending == q.live_count() == 1
        handle.cancel()
        q.run()
        assert q.events_processed == 1

    def test_run_until_fires_what_callbacks_add_at_the_horizon(self):
        q = EventQueue()
        fired: list = []
        q.at(1.0, lambda: q.at(1.0, _recorder(fired, "same-time")))
        q.at(2.0, _recorder(fired, "beyond"))
        q.run(until=1.0)
        assert fired == ["same-time"]
        assert q.now == 1.0
        q.at(2.0, _recorder(fired, "queued-later"))
        q.run()
        assert fired == ["same-time", "beyond", "queued-later"]

    def test_budget_is_the_same_ranked_or_not(self):
        def runaway(q: EventQueue) -> int:
            def tick() -> None:
                for _ in range(4):
                    q.at(q.now + 1.0, lambda: None)
                q.schedule(1.0, tick)

            q.schedule(1.0, tick)
            with pytest.raises(SimulationError, match="max_events"):
                q.run(max_events=100)
            return q.events_simulated

        plain = EventQueue()
        ranked = EventQueue()
        ranked.tie_breaker = fifo_rank
        assert runaway(plain) == runaway(ranked) == 100
        assert plain.events_processed == ranked.events_processed == 100


class TestWatch:
    """Watchers see each event before it fires, compose in the order
    they were added, and a raising one leaves its event queued."""

    def test_watchers_run_in_order_before_each_event(self):
        q = EventQueue()
        seen: list = []
        q.watch(lambda time, _entry: seen.append(("first", time, q.now)))
        q.watch(lambda time, _entry: seen.append(("second", time, q.now)))
        q.at(1.0, lambda: seen.append(("fire", q.now)))
        handle = q.schedule_at(2.0, lambda: seen.append(("fire", q.now)))
        q.run()
        assert seen == [("first", 1.0, 0.0), ("second", 1.0, 0.0), ("fire", 1.0),
                        ("first", 2.0, 1.0), ("second", 2.0, 1.0), ("fire", 2.0)]
        assert handle.fired

    def test_step_is_watched(self):
        q = EventQueue()
        seen: list = []
        q.watch(lambda time, entry: seen.append((time, entry)))
        callback = lambda: None  # noqa: E731
        q.at(3.0, callback)
        assert q.step() is True
        assert seen == [(3.0, callback)]

    def test_raising_watcher_leaves_the_event_queued(self):
        q = EventQueue()
        fired: list = []
        stop = {"at": 1}

        def watcher(_time, _entry) -> None:
            if len(fired) == stop["at"]:
                raise RuntimeError("stop")

        q.watch(watcher)
        q.at(1.0, _recorder(fired, "a"))
        handle = q.schedule_at(1.0, _recorder(fired, "b"))
        with pytest.raises(RuntimeError, match="stop"):
            q.run()
        assert fired == ["a"]
        assert (q.now, q.events_processed, q.pending) == (1.0, 1, 1)
        assert not handle.fired
        stop["at"] = None
        q.run()
        assert fired == ["a", "b"]
        assert q.pending == q.live_count() == 0

    def test_raising_watcher_leaves_the_event_queued_under_step(self):
        q = EventQueue()
        fired: list = []
        calls: list = []

        def watcher(time, _entry) -> None:
            calls.append(time)
            if len(calls) == 1:
                raise RuntimeError("stop")

        q.watch(watcher)
        handle = q.schedule_at(2.0, _recorder(fired, "a"))
        with pytest.raises(RuntimeError, match="stop"):
            q.step()
        assert fired == [] and not handle.fired
        assert (q.now, q.events_processed, q.pending) == (0.0, 0, 1)
        assert q.step() is True
        assert fired == ["a"] and handle.fired
        assert calls == [2.0, 2.0]
        assert q.step() is False

    def test_an_event_a_watcher_stopped_can_still_be_cancelled(self):
        q = EventQueue()
        fired: list = []

        def watcher(_time, _entry) -> None:
            raise RuntimeError("stop")

        q.watch(watcher)
        handle = q.schedule_at(1.0, _recorder(fired, "a"))
        with pytest.raises(RuntimeError, match="stop"):
            q.run()
        handle.cancel()
        assert handle.cancelled and not handle.fired
        assert q.pending == q.live_count() == 0
        q.run()
        assert fired == []
        assert q.heap_size == 0 and q.events_processed == 0

    def test_entry_is_the_queued_entry(self):
        q = EventQueue()
        seen: list = []
        q.watch(lambda _time, entry: seen.append(entry))
        bare = lambda: None  # noqa: E731
        scheduled = lambda: None  # noqa: E731
        q.at(1.0, bare)
        q.schedule_at(1.0, scheduled)
        q.run()
        assert seen[0] is bare
        assert seen[1].callback is scheduled and seen[1].fired
        assert seen[1].seq == 0

    def test_cancelled_events_and_hooks_are_not_watched(self):
        q = EventQueue()
        seen: list = []
        fired: list = []
        q.watch(lambda time, _entry: seen.append(time))
        q.schedule_at(1.0, _recorder(fired, "cancelled")).cancel()
        q.at(2.0, lambda: q.at_end_of_time(0, _recorder(fired, "hook")))
        q.run()
        assert fired == ["hook"]
        assert seen == [2.0]

    def test_stops_at_until_and_max_events_come_before_the_watcher(self):
        q = EventQueue()
        seen: list = []
        q.watch(lambda time, _entry: seen.append(time))
        for time in (1.0, 2.0, 3.0, 4.0):
            q.at(time, lambda: None)
        q.run(until=1.5)
        assert seen == [1.0]
        with pytest.raises(SimulationError, match="max_events"):
            q.run(max_events=2)
        assert seen == [1.0, 2.0, 3.0]
        assert q.pending == 1
        q.run()
        assert seen == [1.0, 2.0, 3.0, 4.0]

    def test_a_watcher_added_by_an_event_sees_the_next_one(self):
        q = EventQueue()
        seen: list = []
        q.at(1.0, lambda: q.watch(lambda time, _entry: seen.append(time)))
        q.at(1.0, lambda: None)
        q.at(2.0, lambda: None)
        q.run()
        assert seen == [1.0, 2.0]

    @pytest.mark.parametrize("seed", [None, 0, 1], ids=["fifo", "seed0", "seed1"])
    def test_a_watched_run_matches_an_unwatched_one(self, seed):
        def simulate(watched: bool):
            q = EventQueue()
            if seed is not None:
                q.tie_breaker = SeededTieBreak(seed)
            seen: list = []
            if watched:
                q.watch(lambda time, _entry: seen.append(time))
            fired: list = []

            def spawn(name):
                fired.append((name, q.now))
                q.at(q.now, _recorder(fired, name + "-same"))
                q.schedule(1.0, _recorder(fired, name + "-next")).cancel()
                q.at_end_of_time(name, _recorder(fired, name + "-hook"))

            for name in "abc":
                q.schedule_at(1.0, lambda name=name: spawn(name))
            q.at(2.0, _recorder(fired, "late"))
            q.run()
            return (fired, q.now, q.events_processed, q.pending, q.heap_size,
                    len(seen))

        watched, unwatched = simulate(True), simulate(False)
        assert watched[:-1] == unwatched[:-1]
        assert watched[-1] == watched[2] == 7


class Owner:
    """Stands in for a collective instance whose bound methods are timers."""

    def tick(self) -> None:
        pass


class TestReferences:
    def test_fired_bucket_releases_its_callbacks(self):
        """After ``run()`` drains, nothing in the queue holds the last
        time's callbacks: their owners die by reference counting alone,
        without a cyclic garbage collection."""
        q = EventQueue()
        owner = Owner()
        ref = weakref.ref(owner)
        q.at(1.0, owner.tick)
        q.at(1.0, owner.tick)
        del owner
        gc.disable()
        try:
            q.run()
            assert ref() is None
        finally:
            gc.enable()


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=[False, True], ids=["unwatched", "watched"])
def paused(request):
    """A fresh queue, and the collector state its watcher saw at each
    event (``None`` when the queue is unwatched)."""
    q = EventQueue()
    if not request.param:
        return q, None
    observed: list = []
    q.watch(lambda _time, _entry: observed.append(gc.isenabled()))
    return q, observed


@pytest.mark.usefixtures("restore_gc")
class TestCollectorPause:
    """run() pauses the cyclic collector and restores its state on exit,
    with or without a watcher on the queue."""

    def test_disabled_inside_callbacks(self, paused):
        q, observed = paused
        seen = []
        q.schedule(1.0, lambda: seen.append(gc.isenabled()))
        q.at(2.0, lambda: seen.append(gc.isenabled()))
        gc.enable()
        q.run()
        assert seen == [False, False]
        if observed is not None:
            assert observed == [False, False]

    def test_enabled_before_enabled_after(self, paused):
        q, observed = paused
        q.schedule(1.0, lambda: None)
        gc.enable()
        q.run()
        assert gc.isenabled()
        if observed is not None:
            assert observed == [False]

    def test_disabled_before_still_disabled_after(self, paused):
        q, observed = paused
        seen = []
        q.schedule(1.0, lambda: seen.append(gc.isenabled()))
        gc.disable()
        q.run()
        assert seen == [False]
        assert not gc.isenabled()
        if observed is not None:
            assert observed == [False]

    def test_restored_after_callback_raises(self, paused):
        q, observed = paused

        def boom():
            raise RuntimeError("boom")

        q.schedule(1.0, boom)
        gc.enable()
        with pytest.raises(RuntimeError, match="boom"):
            q.run()
        assert gc.isenabled()
        if observed is not None:
            assert observed == [False]

    def test_restored_after_max_events(self, paused):
        q, observed = paused

        def forever():
            q.schedule(1.0, forever)

        q.schedule(0.0, forever)
        gc.enable()
        with pytest.raises(SimulationError, match="max_events"):
            q.run(max_events=10)
        assert gc.isenabled()
        if observed is not None:
            assert len(observed) == 10

    def test_restored_after_until(self, paused):
        q, observed = paused
        q.schedule(5.0, lambda: None)
        gc.enable()
        q.run(until=1.0)
        assert gc.isenabled()
        assert q.pending == 1
        if observed is not None:
            assert observed == []

    def test_not_reentrant_leaves_collector_alone(self, paused):
        q, observed = paused
        seen = []

        def nested():
            with pytest.raises(SimulationError, match="re-entrant"):
                q.run()
            seen.append(gc.isenabled())

        q.schedule(1.0, nested)
        gc.enable()
        q.run()
        assert seen == [False]
        assert gc.isenabled()
        if observed is not None:
            assert observed == [False]


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


def _step_until_empty(q: EventQueue) -> None:
    while q.step():
        pass


@pytest.mark.parametrize("drain", [EventQueue.run, _step_until_empty],
                         ids=["run-loop", "step-path"])
class TestEndOfTime:
    """End-of-time hooks run once every entry of their time has fired,
    in rank order, whether the queue is drained by run() or one step()
    at a time."""

    def test_hooks_run_after_the_time_in_rank_order(self, drain):
        q = EventQueue()
        fired: list = []

        def register(name, rank):
            return lambda: q.at_end_of_time(rank, _recorder(fired, name))

        q.at(5.0, register("b", (1, 0)))
        q.at(5.0, _recorder(fired, "e1"))
        q.at(5.0, register("a", (0, 3)))
        q.at(5.0, _recorder(fired, "e2"))
        q.at(6.0, _recorder(fired, "later"))
        drain(q)
        assert fired == ["e1", "e2", "a", "b", "later"]

    def test_rank_order_holds_under_a_seeded_permutation(self, drain):
        orders = set()
        for seed in range(6):
            q = EventQueue()
            q.tie_breaker = SeededTieBreak(seed)
            fired: list = []
            for rank in (3, 0, 2, 1):
                q.at(1.0, lambda rank=rank: q.at_end_of_time(
                    rank, _recorder(fired, rank)))
            drain(q)
            orders.add(tuple(fired))
        assert orders == {(0, 1, 2, 3)}

    def test_entries_a_hook_schedules_now_fire_before_time_advances(self, drain):
        q = EventQueue()
        fired: list = []

        def hook():
            fired.append(("hook", q.now))
            q.at(q.now, lambda: fired.append(("same time", q.now)))
            q.at(q.now + 1.0, lambda: fired.append(("next", q.now)))

        q.at(2.0, lambda: q.at_end_of_time(0, hook))
        drain(q)
        assert fired == [("hook", 2.0), ("same time", 2.0), ("next", 3.0)]

    def test_hook_registered_outside_a_run(self, drain):
        q = EventQueue()
        fired: list = []
        q.at_end_of_time(0, _recorder(fired, "hook"))
        drain(q)
        assert fired == ["hook"]
        assert q.now == 0.0 and q.pending == 0
        assert q.events_processed == 0
