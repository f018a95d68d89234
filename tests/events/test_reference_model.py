"""EventQueue against a sorted-list reference model (hypothesis).

Random interleavings of ``schedule_at``, ``schedule``, ``cancel`` (of
live, cancelled and already-fired handles), ``step``, ``run(until=...)``
and ``run(max_events=...)`` drive the real queue and a plain list of
live ``(time, tiebreak, seq)`` keys in lockstep.  Fired events may
themselves schedule or cancel, and ``COMPACT_MIN_CANCELLED`` is lowered
on the instance so compaction happens in the middle of runs.  Checked:

* every fired event is the model's minimum live key — the executed order
  is ``(time, tiebreak, seq)``, with and without a seeded tie-breaker;
* ``pending == live_count()`` (== the model's population) after every
  dispatch and every operation;
* ``now`` never rewinds.
"""

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.events.engine import EventQueue
from repro.sanitize.schedule import SeededTieBreak

OFFSETS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.5, 100.0])
# run(until=now + offset): a negative offset is a horizon in the past.
HORIZONS = st.sampled_from([-3.0, 0.0, 0.5, 1.0, 2.0, 7.5, 100.0])
# Handle picks for a cancel, several per operation so that cancelled
# entries can outnumber live ones and trigger compaction.
PICKS = st.lists(st.integers(0, 1 << 16), min_size=1, max_size=8)
# What a fired event does: nothing, schedule a child, or cancel handles.
ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("spawn"), OFFSETS),
    st.tuples(st.just("cancel"), PICKS),
)
OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule_at"), OFFSETS, ACTIONS),
    st.tuples(st.just("schedule"), OFFSETS, ACTIONS),
    st.tuples(st.just("cancel"), PICKS),
    st.tuples(st.just("step")),
    st.tuples(st.just("until"), HORIZONS),
    st.tuples(st.just("max_events"), st.integers(0, 6)),
), min_size=10, max_size=80)


class Harness:
    """The real queue and the reference model, advanced in lockstep."""

    def __init__(self, tie_breaker: Optional[SeededTieBreak], compact_at: int):
        self.q = EventQueue()
        self.q.tie_breaker = tie_breaker
        self.q.COMPACT_MIN_CANCELLED = compact_at
        self.q.watcher = self.check
        self.tie_breaker = tie_breaker
        self.handles: list = []
        self.actions: list = []
        self.live: list[tuple[float, int, int]] = []  # the model
        self.model_now = 0.0
        self.last_now = 0.0
        self.fired = 0

    # -- both sides ------------------------------------------------------------

    def add(self, kind: str, offset: float, action) -> None:
        """Schedule at ``now + offset`` through ``schedule_at`` or
        ``schedule``; the event fires :meth:`fire` with its seq."""
        seq = len(self.handles)
        time = self.model_now + offset
        rank = 0 if self.tie_breaker is None else self.tie_breaker(time, seq)
        self.live.append((time, rank, seq))
        self.actions.append(action)

        def callback() -> None:
            self.fire(seq)

        if kind == "schedule_at":
            self.handles.append(self.q.schedule_at(time, callback))
        else:
            self.handles.append(self.q.schedule(offset, callback))

    def cancel(self, picks: list[int]) -> None:
        """An even pick cancels a live event; an odd pick any handle,
        which may already have fired or been cancelled."""
        for k in picks:
            if k % 2 == 0 and self.live:
                seq = sorted(self.live)[k // 2 % len(self.live)][2]
            elif self.handles:
                seq = k // 2 % len(self.handles)
            else:
                continue
            self.live = [key for key in self.live if key[2] != seq]
            self.handles[seq].cancel()

    def fire(self, seq: int) -> None:
        head = min(self.live)
        assert seq == head[2], f"fired seq {seq}, model expects {head}"
        self.live.remove(head)
        self.model_now = head[0]
        self.fired += 1
        action = self.actions[seq]
        if action is None:
            return
        if action[0] == "spawn":
            self.add("schedule", action[1], None)
        else:
            self.cancel(action[1])

    def check(self, _queue: Optional[EventQueue] = None) -> None:
        q = self.q
        assert q.pending == q.live_count() == len(self.live)
        assert q.now >= self.last_now, "now rewound"
        self.last_now = q.now
        assert q.now == self.model_now

    # -- operations ------------------------------------------------------------

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind in ("schedule_at", "schedule"):
            self.add(kind, op[1], op[2])
        elif kind == "cancel":
            self.cancel(op[1])
        elif kind == "step":
            had_live = bool(self.live)
            assert self.q.step() is had_live
        elif kind == "until":
            horizon = self.model_now + op[1]
            self.q.run(until=horizon)
            assert not self.live or min(self.live)[0] > horizon
            if self.live:
                self.model_now = max(self.model_now, horizon)
        else:
            limit = op[1]
            before = self.fired
            try:
                self.q.run(max_events=limit)
            except SimulationError:
                assert self.live and self.fired - before == limit
            else:
                assert not self.live and self.fired - before <= limit
        self.check()


@pytest.mark.parametrize("seeded", [False, True], ids=["fifo", "seeded"])
@settings(max_examples=150, deadline=None)
@given(ops=OPS, seed=st.integers(0, (1 << 64) - 1), compact_at=st.integers(1, 4))
def test_queue_matches_sorted_list_model(seeded, ops, seed, compact_at):
    harness = Harness(SeededTieBreak(seed) if seeded else None, compact_at)
    for op in ops:
        harness.apply(op)
    harness.q.run()
    harness.check()
    assert harness.live == []
