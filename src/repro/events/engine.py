"""Discrete-event simulation engine.

ASTRA-SIM uses an event-driven execution model with a single event queue
implemented in the system layer and exposed upwards to the workload layer
(Sec. IV of the paper).  This module provides that queue: one binary heap
of plain ``(time, tiebreak, seq, event)`` tuples, which ``heapq`` compares
entirely in C.  Cancellation is lazy (a cancelled entry stays in the heap
until it reaches the head or a compaction purges it), and the executed
event order is ``(time, tiebreak, seq)`` with or without compaction (see
docs/DETERMINISM.md).

Step groups.  A collective step issues many timers for the same cycle in
a row (64 sends per timestamp on the ResNet-50 step).  :meth:`EventQueue.after`
lets such a run share one heap entry: a timer for the same time as the
queue's most recent schedule, itself an unfired ``after``, joins that
group's member list instead of pushing its own event.  Any other
schedule in between starts a new group, so a group is always a run of
adjacent sequence numbers and firing its members in list order is
exactly the ``(time, seq)`` order separate events would run.  A group
counts one dispatch (:attr:`EventQueue.events_processed`) and credits its
other members as batched logical events (:attr:`EventQueue.events_simulated`).
Grouping is off while a :attr:`EventQueue.tie_breaker` is installed, so
the schedule race detector permutes every member on its own.

Time is kept in floating-point *cycles*.  The mapping between cycles and
wall-clock seconds is owned by the configuration layer (``ClockConfig``),
not by the engine.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from repro.errors import SimulationError

EventCallback = Callable[[], None]


@dataclass(slots=True)
class _ScheduledEvent:
    """Mutable per-event state (cancellation, fired flag).

    The heap stores plain ``(time, tiebreak, seq, event)`` tuples —
    heapq then compares entries entirely in C (the ``seq`` field is
    unique, so the event object in slot 3 is never reached by a
    comparison), which is the engine's single hottest code path.  The
    ordering semantics: events scheduled for the same time fire in the
    order they were scheduled (deterministic FIFO tie-break);
    ``tiebreak`` is 0 unless a :attr:`EventQueue.tie_breaker` hook is
    installed, in which case it permutes the drain order of
    same-timestamp events (the schedule-perturbation race detector,
    :mod:`repro.sanitize.schedule`).  ``slots=True``: millions of these
    live in the queue of a long run, and the hot loop touches
    ``.time``/``.cancelled`` on every pop.
    """

    time: float
    tiebreak: int
    seq: int
    callback: EventCallback
    cancelled: bool = False
    fired: bool = False


class EventHandle:
    """Handle returned by :meth:`EventQueue.schedule`; allows cancellation."""

    __slots__ = ("_event", "_queue")

    def __init__(self, event: _ScheduledEvent, queue: "EventQueue"):
        self._event = event
        self._queue = queue

    @property
    def time(self) -> float:
        """The simulated time at which the event will fire."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def fired(self) -> bool:
        """Whether the event has already executed."""
        return self._event.fired

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; lazy removal.

        Cancelling an event that already fired is a no-op: the event is no
        longer queued, so counting it as cancelled-in-queue would skew
        :attr:`EventQueue.pending` permanently (the transport layer cancels
        delivery timers that may have just fired).
        """
        if not self._event.cancelled and not self._event.fired:
            self._event.cancelled = True
            self._queue._note_cancel()


class EventQueue:
    """A deterministic discrete-event queue.

    >>> q = EventQueue()
    >>> fired = []
    >>> _ = q.schedule_at(5.0, lambda: fired.append("a"))
    >>> _ = q.schedule_at(2.0, lambda: fired.append("b"))
    >>> q.run()
    >>> fired
    ['b', 'a']
    """

    #: Lazy-removal compaction: once at least this many cancelled entries
    #: sit in the heap *and* they outnumber the live ones, the heap is
    #: rebuilt without them.  Long fuzz runs under the reliable transport
    #: cancel one delivery timer per message and would otherwise grow the
    #: heap without bound.
    COMPACT_MIN_CANCELLED = 1024

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, _ScheduledEvent]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._batched_events = 0
        self._running = False
        self._cancelled_in_heap = 0
        self._compactions = 0
        #: The open step group: the member list of the most recent
        #: schedule when that was an unfired :meth:`after` group, and its
        #: time.  Any other schedule, the group firing and :meth:`reset`
        #: close it (set it to ``None``).
        self._group: Optional[list[EventCallback]] = None
        self._group_time = 0.0
        #: Optional progress observer (see :mod:`repro.resilience`): called
        #: as ``watcher(queue)`` after every executed event.  ``None`` (the
        #: default) keeps the hot loop branch-predictable and the simulated
        #: schedule untouched — watchers observe, they never inject events.
        #: Batched handlers (delivery coalescing, link drains) count as one
        #: executed event, so the watcher fires once per *dispatch*; the
        #: work they covered is visible through :attr:`events_simulated`.
        self.watcher: Optional[Callable[["EventQueue"], None]] = None
        #: Optional same-timestamp permutation hook (see
        #: :mod:`repro.sanitize.schedule`): called as ``tie_breaker(time,
        #: seq)`` at schedule time, and the returned rank is ordered
        #: *between* time and the FIFO sequence number.  ``None`` (the
        #: default) ranks every event 0, i.e. plain FIFO — the production
        #: schedule.  A correct simulation must produce bit-identical
        #: results under any tie-break permutation; the race detector
        #: installs seeded permutations here to prove it.  While a hook is
        #: installed :meth:`after` opens no groups, so the hook ranks
        #: every timer on its own (install it before scheduling).
        self.tie_breaker: Optional[Callable[[float, int], int]] = None

    # -- introspection ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of event-queue dispatches executed so far (a step group
        is one dispatch)."""
        return self._events_processed

    @property
    def batched_events(self) -> int:
        """Logical events folded into batched dispatches (see
        :meth:`credit_batched`)."""
        return self._batched_events

    @property
    def events_simulated(self) -> int:
        """Total logical events simulated: dispatches plus the per-flit /
        per-message events that batched handlers and step groups covered in
        bulk.  This is the throughput numerator profiling reports
        (events/sec) and what ``run(max_events=...)`` bounds — it keeps
        the figure comparable across batched and unbatched engines, which
        simulate the same logical work in different numbers of dispatches.
        """
        return self._events_processed + self._batched_events

    @property
    def pending(self) -> int:
        """Number of *live* (non-cancelled) events still in the queue (a
        step group counts once)."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def heap_size(self) -> int:
        """Raw heap population, including lazily-removed cancelled
        events."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """How many times the heap was compacted (dead entries purged)."""
        return self._compactions

    @property
    def fast_forwards(self) -> int:
        """Always 0.  Kept read-only for the end-to-end benchmark, which
        still reports ``events.fast_forwards``; ROADMAP's "Mend the
        benchmark" item drops the metric and then this property."""
        return 0

    def credit_batched(self, count: int) -> None:
        """Record that the current dispatch covered ``count`` additional
        logical events (a batched handler standing in for ``count``
        singleton dispatches).  Feeds :attr:`events_simulated`, and so the
        ``max_events`` budget of :meth:`run`; ``events_processed`` and the
        watcher cadence keep counting real dispatches.
        """
        self._batched_events += count

    def live_count(self) -> int:
        """Recount live (non-cancelled) entries in O(n).

        Ground truth for :attr:`pending`, which is maintained incrementally;
        the runtime sanitizer compares the two at quiescence (a drift means
        a cancellation was double-counted or lost).
        """
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    # -- cancellation / compaction ---------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled_in_heap += 1
        if (self._cancelled_in_heap >= self.COMPACT_MIN_CANCELLED
                and self._cancelled_in_heap * 2 > len(self._heap)):
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Drain order is (time, tiebreak, seq); all three survive compaction
        unchanged, so the executed event sequence — and therefore the
        simulation — is byte-for-byte identical with or without
        compaction.  The heap list is mutated *in place* (slice
        assignment): a compaction triggered from inside an event callback
        must be visible to the running drain loop.
        """
        if self._cancelled_in_heap == 0:
            return
        self._heap[:] = [e for e in self._heap if not e[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    # -- scheduling ------------------------------------------------------------

    def schedule_at(self, time: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` to fire at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        self._group = None
        seq = next(self._seq)
        tie_breaker = self.tie_breaker
        tiebreak = 0 if tie_breaker is None else tie_breaker(time, seq)
        event = _ScheduledEvent(time=time, tiebreak=tiebreak, seq=seq,
                                callback=callback)
        heapq.heappush(self._heap, (time, tiebreak, seq, event))
        return EventHandle(event, self)

    def schedule(self, delay: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, callback)

    def after(self, delay: float, callback: EventCallback) -> None:
        """Schedule ``callback`` ``delay`` cycles from now, without a handle.

        If the queue's most recent schedule was an ``after`` for the same
        time whose event has not fired yet, ``callback`` joins that step
        group; otherwise it opens a new group of one.  The members fire in
        the order they joined, in one dispatch, which is the order separate
        events would have fired in (see the module docstring).  With a
        :attr:`tie_breaker` installed every call is a plain
        :meth:`schedule`.

        If a member raises, the exception propagates out of :meth:`step` /
        :meth:`run` and the members after it stay queued at the group's
        place in the ``(time, seq)`` order: the next ``step``/``run`` fires
        them first, as it would have fired the separate events.
        """
        time = self._now + delay
        members = self._group
        if members is not None and time == self._group_time:
            members.append(callback)
            return
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if self.tie_breaker is not None:
            self.schedule_at(time, callback)
            return
        # schedule_at's past-time check cannot trip: delay >= 0.
        members = [callback]
        self._push_group(time, next(self._seq), members)
        self._group = members
        self._group_time = time

    def _push_group(self, time: float, seq: int,
                    members: list[EventCallback]) -> None:
        event = _ScheduledEvent(time=time, tiebreak=0, seq=seq,
                                callback=partial(self._fire_group, seq, members))
        heapq.heappush(self._heap, (time, 0, seq, event))

    def _fire_group(self, seq: int, members: list[EventCallback]) -> None:
        """Run one step group's members (the group event's callback)."""
        if self._group is members:
            # Closed before the members run: a same-time ``after`` from a
            # member opens a new group behind this one.  Dropping the
            # reference also frees the members once they have run.
            self._group = None
        remaining = iter(members)
        try:
            for callback in remaining:
                callback()
        except BaseException:
            rest = list(remaining)
            self._batched_events += len(members) - len(rest) - 1
            if rest:
                self._push_group(self._now, seq, rest)
            raise
        self._batched_events += len(members) - 1

    # -- draining --------------------------------------------------------------

    def _peek_live(self) -> Optional[_ScheduledEvent]:
        """The next live event, dropping cancelled heads along the way.

        The returned event is left queued (callers commit via
        :meth:`_pop_live`).  :meth:`run`'s fast loop inlines the same
        drop-and-count step, so ``pending`` and the compaction trigger see
        identical bookkeeping whichever path drains the heap.
        """
        heap = self._heap
        while heap:
            head = heap[0][3]
            if not head.cancelled:
                return head
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        return None

    def _pop_live(self) -> Optional[_ScheduledEvent]:
        """Commit and return the next live event (peek + pop in one)."""
        event = self._peek_live()
        if event is not None:
            heapq.heappop(self._heap)
        return event

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        was empty (or contained only cancelled events).

        Events scheduled *at* the current time from within a handler are
        pushed with a fresh FIFO sequence number and therefore execute in
        the same drain pass, after everything already scheduled for that
        timestamp — a fault-schedule flip (e.g. ``link_down``) racing an
        in-flight send at the same cycle resolves in schedule order,
        deterministically.
        """
        event = self._pop_live()
        if event is None:
            return False
        self._now = event.time
        self._events_processed += 1
        event.fired = True
        event.callback()
        if self.watcher is not None:
            self.watcher(self)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is an inclusive horizon: events at exactly ``until`` fire,
        including events a handler schedules at ``until`` while it runs.
        ``max_events`` guards against runaway simulations: no dispatch
        starts once this call has simulated ``max_events`` logical events
        (:attr:`events_simulated`, so the budget does not depend on how
        timers group or deliveries batch; the last dispatch may overshoot
        by its batch).

        Python's cyclic garbage collector is disabled while the queue
        drains and re-enabled on the way out, whether the drain ends,
        stops at ``until`` or raises, if it was enabled on entry.
        """
        if self._running:
            raise SimulationError("EventQueue.run() is not re-entrant")
        self._running = True
        budget_end = (None if max_events is None
                      else self.events_simulated + max_events)
        # The cyclic collector is paused for the drain: a simulation frees
        # everything it allocates by reference counting
        # (tests/integration/test_reference_cycles.py), so its passes only
        # scan live objects and find nothing.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            if type(self).step is not EventQueue.step:
                # A subclass instrumented the per-event path (e.g. the
                # runtime sanitizer's time-travel/livelock checks); route
                # every execution through its step() override instead of
                # the inlined fast loop below.
                peek_live = self._peek_live
                step = self.step
                while True:
                    head = peek_live()
                    if head is None:
                        return
                    if until is not None and head.time > until:
                        self._now = max(self._now, until)
                        return
                    if (budget_end is not None
                            and self.events_simulated >= budget_end):
                        raise SimulationError(
                            f"exceeded max_events={max_events} (possible livelock)"
                        )
                    step()
            # Hot loop: _peek_live/_pop_live inlined.  ``heap`` stays the
            # live list because compaction and reset mutate it in place.
            heap = self._heap
            heappop = heapq.heappop
            while heap:
                entry = heap[0]
                head = entry[3]
                if head.cancelled:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                t = entry[0]
                if until is not None and t > until:
                    # Never rewind: run(until=past) must not move time back.
                    self._now = max(self._now, until)
                    return
                if (budget_end is not None and self._events_processed
                        + self._batched_events >= budget_end):
                    raise SimulationError(
                        f"exceeded max_events={max_events} (possible livelock)"
                    )
                heappop(heap)
                self._now = t
                self._events_processed += 1
                head.fired = True
                head.callback()
                watcher = self.watcher
                if watcher is not None:
                    watcher(self)
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Also restarts the FIFO sequence counter so a reset queue schedules
        events with the same tie-break order as a fresh one: identical runs
        on a reused queue stay bit-identical (cross-run determinism).
        """
        self._heap.clear()
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._batched_events = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        self._group = None


class CountdownBarrier:
    """Fires ``on_done`` once :meth:`arrive` has been called ``count`` times.

    Used by collective state machines to wait for N concurrent completions
    (e.g. the N-1 simultaneous receives of a direct alltoall step).

    When a runtime sanitizer is supplied (see
    :class:`repro.sanitize.runtime.RuntimeSanitizer`), the barrier
    registers with its barrier checker: over-arrival is reported with the
    barrier's name and expected count, and barriers still unfired at
    quiescence are surfaced as under-arrivals.  The sanitizer is passed
    duck-typed so the event engine stays import-free of the sanitizer.
    """

    def __init__(self, count: int, on_done: EventCallback,
                 name: str = "", sanitizer: Any = None):
        if count < 0:
            raise SimulationError(f"barrier count must be >= 0, got {count}")
        self.name = name
        self.count = count
        self._remaining = count
        self._on_done = on_done
        self._fired = False
        self._sanitizer = sanitizer
        if sanitizer is not None:
            sanitizer.barriers.register(self)
        if count == 0:
            self._fire()

    @property
    def remaining(self) -> int:
        return self._remaining

    @property
    def done(self) -> bool:
        return self._fired

    def arrive(self, _result: Any = None) -> None:
        if self._fired:
            if self._sanitizer is not None:
                self._sanitizer.barriers.over_arrival(self)
            raise SimulationError(
                f"arrive() after barrier {self.name or 'anonymous'} "
                f"(count={self.count}) already fired"
            )
        self._remaining -= 1
        if self._remaining == 0:
            self._fire()
        elif self._remaining < 0:  # pragma: no cover - guarded above
            raise SimulationError("barrier over-arrived")

    def _fire(self) -> None:
        # ``on_done`` is released as it runs: it usually points back at
        # the state machine that owns this barrier.
        on_done, self._on_done = self._on_done, None
        self._fired = True
        if self._sanitizer is not None:
            self._sanitizer.barriers.fired(self)
        on_done()
