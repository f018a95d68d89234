"""Discrete-event simulation engine.

ASTRA-SIM uses an event-driven execution model with a single event queue
implemented in the system layer and exposed upwards to the workload layer
(Sec. IV of the paper).  This module provides that queue: a binary heap
of the *distinct* pending times plus a map from each time to that time's
entries in schedule order (its bucket).  Every event of one time shares
that time's heap entry, so a collective step's same-cycle timers and
deliveries cost one ``deque`` append each, and the executed order is
exactly ``(time, tiebreak, seq)``: buckets drain in time order, each from
its head, and an entry added to the draining bucket fires after every
entry already in it.  Cancellation is lazy (a cancelled entry stays in its
bucket until it reaches the head or a compaction purges it); see
docs/DETERMINISM.md.

A bucket holds two kinds of entries: bare callbacks from the handle-less
:meth:`EventQueue.at`, which allocates nothing per event, and
``_ScheduledEvent`` objects from :meth:`EventQueue.schedule_at` /
:meth:`EventQueue.schedule`, which carry the state an
:class:`EventHandle` cancels.

Besides events, a time can hold *end-of-time hooks*
(:meth:`EventQueue.at_end_of_time`): callbacks that run once every entry
of the current time has fired, in the order of a rank their caller
chose, not in the order they were registered.  A direct exchange sends
its messages from one (docs/DETERMINISM.md, "End-of-time flush").

Time is kept in floating-point *cycles*.  The mapping between cycles and
wall-clock seconds is owned by the configuration layer (``ClockConfig``),
not by the engine.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable, Optional

from repro.errors import SimulationError

EventCallback = Callable[[], None]
#: A per-event observer, called as ``watcher(time, entry)`` (see
#: :meth:`EventQueue.watch`).
Watcher = Callable[[float, Any], None]


@dataclass(slots=True)
class _ScheduledEvent:
    """Mutable per-event state (cancellation, fired flag) of a
    :meth:`EventQueue.schedule_at` entry.

    Events of the same time fire in the order they were scheduled
    (deterministic FIFO tie-break); ``tiebreak`` is 0 unless a
    :attr:`EventQueue.tie_breaker` hook is installed, in which case the
    bucket keeps its events sorted by ``(tiebreak, seq)`` and so permutes
    the drain order of same-timestamp events (the schedule-perturbation
    race detector, :mod:`repro.sanitize.schedule`).  ``slots=True``: a
    long run queues many of these, and the drain touches
    ``.cancelled``/``.callback`` on every one.
    """

    time: float
    tiebreak: int
    seq: int
    callback: EventCallback
    cancelled: bool = False
    fired: bool = False


_rank = attrgetter("tiebreak", "seq")
_hook_rank = itemgetter(0)


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

    #: Lazy-removal compaction: once at least this many cancelled events
    #: sit in the queue *and* they outnumber the live scheduled events,
    #: the buckets are rebuilt without them.  Long fuzz runs under the
    #: reliable transport cancel one delivery timer per message and would
    #: otherwise grow the queue without bound.
    COMPACT_MIN_CANCELLED = 1024

    def __init__(self) -> None:
        #: The distinct pending times (a min-heap) and each one's bucket of
        #: entries: bare ``at`` callbacks and ``_ScheduledEvent`` objects.
        #: Invariant: the heap holds exactly the bucket keys, once each.
        self._heap: list[float] = []
        self._buckets: dict[float, deque[Any]] = {}
        self._seq = itertools.count()
        #: Current simulated time in cycles (written by the drain only).
        self.now = 0.0
        self._events_processed = 0
        self._batched_events = 0
        self._running = False
        #: Queued ``_ScheduledEvent`` entries, cancelled ones included
        #: (bare ``at`` callbacks cannot be cancelled and are not counted).
        self._scheduled = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        #: The composed per-event observer (see :meth:`watch`).  ``None``
        #: (the default) keeps the hot loop branch-predictable.
        self._watcher: Optional[Watcher] = None
        #: Optional same-timestamp permutation hook (see
        #: :mod:`repro.sanitize.schedule`): called as ``tie_breaker(time,
        #: seq)`` at schedule time, and the returned rank is ordered
        #: *between* time and the FIFO sequence number.  ``None`` (the
        #: default) ranks every event 0, i.e. plain FIFO — the production
        #: schedule.  A correct simulation must produce bit-identical
        #: results under any tie-break permutation; the race detector
        #: installs seeded permutations here to prove it.  While a hook is
        #: installed, :meth:`at` schedules a ranked event too; install it
        #: before scheduling.
        self.tie_breaker: Optional[Callable[[float, int], int]] = None
        #: End-of-time hooks registered at ``now``, as ``(rank,
        #: callback)`` (see :meth:`at_end_of_time`).
        self._end_of_time: list[tuple[Any, EventCallback]] = []

    # -- introspection ---------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of events (callbacks) executed so far."""
        return self._events_processed

    @property
    def events_simulated(self) -> int:
        """Total logical events simulated: executed events plus the
        per-flit events the detailed backend's batched handlers covered in
        bulk.  This is the throughput numerator profiling reports
        (events/sec), what ``run(max_events=...)`` bounds and what the
        stall watchdog and progress reporter pace on — it keeps the
        figure comparable across batched and unbatched backends, which
        simulate the same logical work in different numbers of events.
        """
        return self._events_processed + self._batched_events

    @property
    def pending(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return self.heap_size - self._cancelled_in_heap

    @property
    def heap_size(self) -> int:
        """Raw queue population, including lazily-removed cancelled
        events."""
        return sum(map(len, self._buckets.values()))

    @property
    def compactions(self) -> int:
        """How many times the queue was compacted (dead entries purged)."""
        return self._compactions

    @property
    def fast_forwards(self) -> int:
        """Always 0.  Kept read-only for the end-to-end benchmark, which
        still reports ``events.fast_forwards``; ROADMAP's "Mend the
        benchmark" item drops the metric and then this property."""
        return 0

    def credit_batched(self, count: int) -> None:
        """Record that the current event covered ``count`` additional
        logical events (a batched handler standing in for ``count``
        singleton events).  Feeds :attr:`events_simulated`, and so the
        ``max_events`` budget of :meth:`run`; ``events_processed`` keeps
        counting executed events.
        """
        self._batched_events += count

    def live_count(self) -> int:
        """Recount live (non-cancelled) entries in O(n).

        Ground truth for :attr:`pending`, which is maintained incrementally;
        the runtime sanitizer compares the two at quiescence (a drift means
        a cancellation was double-counted or lost).
        """
        return sum(1 for bucket in self._buckets.values() for entry in bucket
                   if entry.__class__ is not _ScheduledEvent or not entry.cancelled)

    # -- cancellation / compaction ---------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled_in_heap += 1
        if (self._cancelled_in_heap >= self.COMPACT_MIN_CANCELLED
                and self._cancelled_in_heap * 2 > self._scheduled):
            self.compact()

    def compact(self) -> None:
        """Rebuild the buckets without cancelled entries.

        Each bucket keeps its live entries in order, so the executed event
        sequence — and therefore the simulation — is byte-for-byte
        identical with or without compaction.  Buckets are filtered *in
        place* and the bucket at ``now`` is kept even when it empties: a
        compaction triggered from inside an event callback must be visible
        to the running drain loop, which holds that bucket.
        """
        if self._cancelled_in_heap == 0:
            return
        buckets = self._buckets
        for time, bucket in list(buckets.items()):
            live = [entry for entry in bucket
                    if entry.__class__ is not _ScheduledEvent or not entry.cancelled]
            if len(live) == len(bucket):
                continue
            if live or time == self.now:
                bucket.clear()
                bucket.extend(live)
            else:
                del buckets[time]
        self._heap[:] = buckets
        heapq.heapify(self._heap)
        self._scheduled -= self._cancelled_in_heap
        self._cancelled_in_heap = 0
        self._compactions += 1

    # -- scheduling ------------------------------------------------------------

    def at(self, time: float, callback: EventCallback) -> None:
        """Schedule ``callback`` to fire at absolute simulated ``time``,
        without a handle.

        The callback is appended to ``time``'s bucket as it is: no event
        object is allocated, which is what the per-message paths (ring
        step timers, fast-backend deliveries) use.  With a
        :attr:`tie_breaker` installed it is a ranked :meth:`schedule_at`.
        """
        bucket = self._buckets.get(time)
        if bucket is not None and self.tie_breaker is None:
            bucket.append(callback)
            return
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        if self.tie_breaker is not None:
            self.schedule_at(time, callback)
            return
        self._buckets[time] = deque((callback,))
        heapq.heappush(self._heap, time)

    def schedule_at(self, time: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` to fire at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        seq = next(self._seq)
        tie_breaker = self.tie_breaker
        tiebreak = 0 if tie_breaker is None else tie_breaker(time, seq)
        event = _ScheduledEvent(time=time, tiebreak=tiebreak, seq=seq,
                                callback=callback)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque((event,))
            heapq.heappush(self._heap, time)
        elif tie_breaker is None:
            bucket.append(event)
        else:
            bisect.insort(bucket, event, key=_rank)
        self._scheduled += 1
        return EventHandle(event, self)

    def schedule(self, delay: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback)

    def at_end_of_time(self, rank: Any, callback: EventCallback) -> None:
        """Run ``callback`` once every entry of the current time has fired,
        before time advances.

        The hooks of one time run together, sorted by ``rank``: callers
        pass distinct ranks that do not depend on event order, so no
        same-timestamp permutation (:attr:`tie_breaker`) moves them.  A
        hook is not an event (it is not counted, and no watcher sees
        it).  Entries it schedules at the current time fire after it,
        then any hooks they register.  A hook registered outside
        :meth:`run` runs at the start of the next drain.
        """
        if self.now not in self._buckets:
            self._buckets[self.now] = deque()
            heapq.heappush(self._heap, self.now)
        self._end_of_time.append((rank, callback))

    def _run_end_of_time(self) -> None:
        """Run the registered end-of-time hooks in rank order."""
        hooks, self._end_of_time = self._end_of_time, []
        hooks.sort(key=_hook_rank)
        for _rank, callback in hooks:
            callback()

    # -- draining --------------------------------------------------------------

    def watch(self, watcher: Watcher) -> None:
        """Observe every event: ``watcher(time, entry)`` is called just
        before the event fires, while :attr:`now` is still the previous
        event's time and the event is still queued.  ``entry`` is the
        queued entry: a bare :meth:`at` callback or a scheduled event
        (``.seq``, ``.callback``).

        Watchers compose in the order they were added.  A raising watcher
        stops the drain with the event still queued, so the next
        ``step``/``run`` resumes at it.  Watchers observe; they never
        schedule events, so a watched run is cycle-identical to an
        unwatched one.  A batched handler (the detailed backend's flit
        bursts) is one event; observers pace on :attr:`events_simulated`,
        which counts the work it covered.
        """
        first = self._watcher
        if first is None:
            self._watcher = watcher
            return

        def both(time: float, entry: Any) -> None:
            first(time, entry)
            watcher(time, entry)

        self._watcher = both

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        was empty (or contained only cancelled events).

        Events scheduled *at* the current time from within a handler join
        the current time's bucket and therefore execute in the same drain
        pass, after everything already scheduled for that timestamp — a
        fault-schedule flip (e.g. ``link_down``) racing an in-flight send
        at the same cycle resolves in schedule order, deterministically.
        """
        return self._drain(None, None, single=True)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is an inclusive horizon: events at exactly ``until`` fire,
        including events a handler schedules at ``until`` while it runs.
        ``max_events`` guards against runaway simulations: no event starts
        once this call has simulated ``max_events`` logical events
        (:attr:`events_simulated`, so the budget does not depend on how
        a backend batches; the last event may overshoot by its batch).
        A stop at ``until`` or ``max_events``, like a raising callback,
        leaves the rest of the current time queued in place, and the next
        ``step``/``run`` resumes there.
        """
        self._drain(until, max_events, single=False)

    def _drain(self, until: Optional[float], max_events: Optional[int],
               single: bool) -> bool:
        """The one drain loop behind :meth:`run` and :meth:`step`
        (``single``: return after the first executed event).  Returns
        whether an event was executed.

        Python's cyclic garbage collector is disabled while the queue
        drains and re-enabled on the way out, whether the drain ends,
        stops or raises, if it was enabled on entry.
        """
        if self._running:
            raise SimulationError("EventQueue.run()/step() is not re-entrant")
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
            # One pass per distinct time, one popleft per entry.  ``heap``
            # stays the live list because compaction mutates it in place.
            heap = self._heap
            buckets = self._buckets
            heappop = heapq.heappop
            event_class = _ScheduledEvent
            while heap:
                t = heap[0]
                if until is not None and t > until:
                    # Time moves to the horizon only if a live event lies
                    # beyond it, and never back (run(until=past)).
                    if self.pending:
                        self.now = max(self.now, until)
                    return False
                bucket = buckets[t]
                popleft = bucket.popleft
                while bucket:
                    callback = entry = popleft()
                    if entry.__class__ is event_class:
                        self._scheduled -= 1
                        if entry.cancelled:
                            self._cancelled_in_heap -= 1
                            continue
                        entry.fired = True
                        callback = entry.callback
                    if (budget_end is not None and self._events_processed
                            + self._batched_events >= budget_end):
                        self._requeue_head(bucket, entry)
                        raise SimulationError(
                            f"exceeded max_events={max_events} (possible livelock)"
                        )
                    watcher = self._watcher
                    if watcher is not None:
                        # Watchers see the event still queued, and a raise
                        # leaves it there.
                        self._requeue_head(bucket, entry)
                        watcher(t, entry)
                        if popleft().__class__ is event_class:
                            self._scheduled -= 1
                            entry.fired = True
                    self.now = t
                    self._events_processed += 1
                    callback()
                    if single:
                        return True
                if self._end_of_time:
                    # The hooks may add entries at t: drain them too.
                    self._run_end_of_time()
                    continue
                heappop(heap)
                del buckets[t]
            return False
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def _requeue_head(self, bucket: deque[Any], entry: Any) -> None:
        """Put back an entry the drain popped but must not fire yet."""
        if entry.__class__ is _ScheduledEvent:
            entry.fired = False
            self._scheduled += 1
        bucket.appendleft(entry)


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

    def _fire(self) -> None:
        # ``on_done`` is released as it runs: it usually points back at
        # the state machine that owns this barrier.
        on_done, self._on_done = self._on_done, None
        self._fired = True
        if self._sanitizer is not None:
            self._sanitizer.barriers.fired(self)
        on_done()
