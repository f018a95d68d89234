"""Step groups: same-time ``EventQueue.after`` timers share one dispatch."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.events import EventQueue
from repro.sanitize.schedule import SeededTieBreak, fifo_rank


def _recorder(fired: list, name):
    return lambda: fired.append(name)


class TestGrouping:
    def test_same_time_timers_fire_in_order_as_one_dispatch(self):
        q = EventQueue()
        fired: list = []
        for i in range(5):
            q.after(3.0, _recorder(fired, i))
        assert q.pending == 1
        q.run()
        assert fired == [0, 1, 2, 3, 4]
        assert q.now == 3.0
        assert q.events_processed == 1
        assert q.events_simulated == 5

    def test_different_times_open_new_groups(self):
        q = EventQueue()
        fired: list = []
        q.after(2.0, _recorder(fired, "a"))
        q.after(1.0, _recorder(fired, "b"))
        q.after(1.0, _recorder(fired, "c"))
        q.run()
        assert fired == ["b", "c", "a"]
        assert (q.events_processed, q.events_simulated) == (2, 3)

    def test_intervening_schedule_at_splits_a_group(self):
        q = EventQueue()
        fired: list = []
        q.after(1.0, _recorder(fired, "a"))
        q.schedule_at(1.0, _recorder(fired, "b"))
        q.after(1.0, _recorder(fired, "c"))
        assert q.pending == 3
        q.run()
        assert fired == ["a", "b", "c"]
        assert (q.events_processed, q.events_simulated) == (3, 3)

    def test_member_issued_same_time_timer_fires_after_the_group(self):
        q = EventQueue()
        fired: list = []

        def first() -> None:
            fired.append("first")
            q.after(0.0, _recorder(fired, "child"))

        q.after(1.0, first)
        q.after(1.0, _recorder(fired, "second"))
        q.run()
        assert fired == ["first", "second", "child"]
        assert (q.events_processed, q.events_simulated) == (2, 3)

    def test_member_joins_an_open_group_at_its_own_time(self):
        """An event firing before an open group at the same time may still
        add to it: nothing else was scheduled in between, so the timer's
        turn is right after the group's last member either way."""
        q = EventQueue()
        fired: list = []
        q.schedule_at(1.0, lambda: q.after(0.0, _recorder(fired, "late")))
        q.after(1.0, _recorder(fired, "grouped"))
        q.run()
        assert fired == ["grouped", "late"]
        assert (q.events_processed, q.events_simulated) == (2, 3)

    @pytest.mark.parametrize("hook", [fifo_rank, SeededTieBreak(7)],
                             ids=["fifo", "seeded"])
    def test_tie_breaker_disables_grouping(self, hook):
        q = EventQueue()
        q.tie_breaker = hook
        fired: list = []
        for i in range(4):
            q.after(1.0, _recorder(fired, i))
        assert q.pending == 4
        q.run()
        assert (q.events_processed, q.events_simulated) == (4, 4)
        if hook is fifo_rank:
            assert fired == [0, 1, 2, 3]
        else:
            assert sorted(fired) == [0, 1, 2, 3]

    def test_reset_closes_the_open_group(self):
        q = EventQueue()
        fired: list = []
        q.after(1.0, _recorder(fired, "dropped"))
        q.reset()
        q.after(1.0, _recorder(fired, "kept"))
        q.run()
        assert fired == ["kept"]
        assert q.events_simulated == 1

    def test_negative_delay_rejected(self):
        q = EventQueue()
        q.after(0.0, lambda: None)  # an open group at t=now
        with pytest.raises(SimulationError, match="negative delay"):
            q.after(-1.0, lambda: None)
        assert q.pending == 1


class TestRaisingMember:
    def test_members_after_a_raising_one_stay_queued_in_place(self):
        """The exception escapes ``run``; the members behind the raising
        one keep their place in the (time, seq) order, ahead of a later
        same-time event, and the next ``run`` fires them."""
        q = EventQueue()
        fired: list = []

        def boom() -> None:
            fired.append("boom")
            raise RuntimeError("member failed")

        q.after(1.0, _recorder(fired, "a"))
        q.after(1.0, boom)
        q.after(1.0, _recorder(fired, "c"))
        q.after(1.0, _recorder(fired, "d"))
        q.schedule_at(1.0, _recorder(fired, "later"))
        with pytest.raises(RuntimeError, match="member failed"):
            q.run()
        assert fired == ["a", "boom"]
        assert q.events_simulated == 2
        assert q.pending == 2  # the rest of the group, and "later"
        q.run()
        assert fired == ["a", "boom", "c", "d", "later"]
        assert q.events_simulated == 5
        assert q.events_processed == 3

    def test_raising_last_member_leaves_nothing_queued(self):
        q = EventQueue()

        def boom() -> None:
            raise RuntimeError("last")

        q.after(1.0, lambda: None)
        q.after(1.0, boom)
        with pytest.raises(RuntimeError):
            q.run()
        assert q.pending == 0
        assert q.events_simulated == 2


class TestEventBudget:
    def test_max_events_counts_logical_events(self):
        q = EventQueue()
        for _ in range(10):
            q.after(1.0, lambda: None)
        q.schedule_at(2.0, lambda: None)
        # The group starts inside the budget and runs whole; the next
        # dispatch would exceed it.
        with pytest.raises(SimulationError, match="max_events=5"):
            q.run(max_events=5)
        assert (q.events_processed, q.events_simulated) == (1, 10)

    def test_budget_is_the_same_grouped_or_not(self):
        def runaway(q: EventQueue) -> int:
            def tick() -> None:
                for _ in range(4):
                    q.after(1.0, lambda: None)
                q.schedule(1.0, tick)

            q.schedule(1.0, tick)
            with pytest.raises(SimulationError, match="max_events"):
                q.run(max_events=100)
            return q.events_simulated

        grouped = EventQueue()
        ungrouped = EventQueue()
        ungrouped.tie_breaker = fifo_rank
        assert runaway(grouped) == runaway(ungrouped) == 100
        assert grouped.events_processed < ungrouped.events_processed


class Owner:
    """Stands in for a collective instance whose bound methods are timers."""

    def tick(self) -> None:
        pass


class TestReferences:
    def test_fired_group_releases_its_members(self):
        """After ``run()`` drains, nothing in the queue holds the last
        group's callbacks: their owners die by reference counting alone,
        without a cyclic garbage collection."""
        q = EventQueue()
        owner = Owner()
        ref = weakref.ref(owner)
        q.after(1.0, owner.tick)
        q.after(1.0, owner.tick)
        del owner
        gc.disable()
        try:
            q.run()
            assert ref() is None
        finally:
            gc.enable()
