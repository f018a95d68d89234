"""EventQueue against a sorted-list reference model (hypothesis).

Random interleavings of ``schedule_at``, ``schedule``, ``at``,
``cancel`` (of live, cancelled and already-fired handles), ``step``,
``run(until=...)`` and ``run(max_events=...)`` drive the real queue and a
plain list of live ``(time, tiebreak, seq)`` keys in lockstep, one key per
callback.  Fired events may themselves schedule (any way) or cancel, and
``COMPACT_MIN_CANCELLED`` is lowered on the instance so compaction
happens in the middle of runs.  Checked:

* every fired callback is the model's minimum live key — the executed
  order is ``(time, tiebreak, seq)``, with and without a seeded
  tie-breaker, for handle events and bare ``at`` entries alike;
* ``pending == live_count()`` == the model's number of live events after
  every executed event and every operation;
* a watcher sees each executed event just before it fires: its time is
  the model's minimum live key's, ``now`` is still the previous event's
  time and the event still counts as pending;
* ``events_processed == events_simulated`` == the number of callbacks
  fired (nothing credits batches here), and a ``max_events`` budget
  stops the drain after exactly that many callbacks;
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
# What a fired event does: nothing, schedule a child (as an event or a
# bare ``at`` entry), or cancel handles.
ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["schedule", "at"]), OFFSETS),
    st.tuples(st.just("cancel"), PICKS),
)
OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule_at"), OFFSETS, ACTIONS),
    st.tuples(st.just("schedule"), OFFSETS, ACTIONS),
    st.tuples(st.just("at"), OFFSETS, ACTIONS),
    # Several same-time ``at`` entries in a row, as a ring step issues.
    st.tuples(st.just("ats"), OFFSETS, st.lists(ACTIONS, min_size=2, max_size=4)),
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
        self.q.watch(self.dispatching)
        self.tie_breaker = tie_breaker
        self.handles: list = []  # by seq; None for an ``at`` entry
        self.actions: list = []
        self.live: list[tuple[float, int, int]] = []  # the model
        self.model_now = 0.0
        self.last_now = 0.0
        self.fired = 0

    # -- both sides ------------------------------------------------------------

    def add(self, kind: str, offset: float, action) -> None:
        """Schedule at ``now + offset`` through ``schedule_at``,
        ``schedule`` or ``at``; the callback fires :meth:`fire` with its
        seq (the model numbers callbacks; the queue numbers only ranked
        events, and under a tie-breaker every callback is one)."""
        seq = len(self.handles)
        time = self.model_now + offset
        rank = 0 if self.tie_breaker is None else self.tie_breaker(time, seq)
        self.live.append((time, rank, seq))
        self.actions.append(action)

        def callback() -> None:
            self.fire(seq)
            self.check()

        if kind == "at":
            self.handles.append(self.q.at(time, callback))
        elif kind == "schedule_at":
            self.handles.append(self.q.schedule_at(time, callback))
        else:
            self.handles.append(self.q.schedule(offset, callback))

    def cancel(self, picks: list[int]) -> None:
        """An even pick cancels a live event; an odd pick any handle,
        which may already have fired or been cancelled.  ``at`` entries
        have no handle and are never picked."""
        cancellable = [seq for seq, h in enumerate(self.handles) if h is not None]
        for k in picks:
            live = sorted(key for key in self.live
                          if self.handles[key[2]] is not None)
            if k % 2 == 0 and live:
                seq = live[k // 2 % len(live)][2]
            elif cancellable:
                seq = cancellable[k // 2 % len(cancellable)]
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
        if action[0] == "cancel":
            self.cancel(action[1])
        else:
            self.add(action[0], action[1], None)

    def dispatching(self, time: float, _entry) -> None:
        """The watcher: once per executed event, before its callback."""
        q = self.q
        assert time == min(self.live)[0]
        assert q.now == self.model_now, "now advanced before the event"
        assert q.pending == q.live_count() == len(self.live)
        assert q.events_processed == self.fired

    def check(self) -> None:
        q = self.q
        assert q.pending == q.live_count() == len(self.live)
        assert q.events_processed == q.events_simulated == self.fired
        assert q.now >= self.last_now, "now rewound"
        self.last_now = q.now
        assert q.now == self.model_now

    # -- operations ------------------------------------------------------------

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind in ("schedule_at", "schedule", "at"):
            self.add(kind, op[1], op[2])
        elif kind == "ats":
            for action in op[2]:
                self.add("at", op[1], action)
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
