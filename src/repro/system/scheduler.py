"""The system-layer scheduler (Sec. IV-B, Fig. 7).

Keeps the *ready queue* of chunks not yet issued and dispatches them into
the multi-phase execution pipeline.  The dispatcher "keeps track of the
current active chunks at their first phase; if they fall below a certain
threshold T, the dispatcher issues P new chunks from the ready queue".
The logical scheduling queues (LSQs) — one per dedicated channel per
phase — are realized by assigning each chunk a channel index at issue
time; their population is tracked for reporting.

The ready queue honours the Table III #7 scheduling policy: FIFO issues
chunks in request order, LIFO prefers the most recently requested
collective (prioritizing the first layers' gradients, Sec. III-E, since
back-propagation requests them last).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from repro.collectives.context import CollectiveContext
from repro.collectives.hierarchical import ChunkExecution
from repro.config.parameters import SchedulingPolicy, SystemConfig
from repro.errors import SchedulerError
from repro.events.engine import EventQueue
from repro.network.physical.fabric import Fabric
from repro.system.collective_set import CollectiveSet

@dataclass
class ReadyChunk:
    """A chunk sitting in the ready queue.

    ``chunk_id`` is assigned by the owning :class:`Scheduler` — a
    per-system counter, not a process global, so chunk numbering (the
    PRIORITY-policy FIFO tie-break, ``in_flight`` keys, diagnostics)
    depends on this run alone and not on how many systems the process or
    a pool worker built before (cross-process determinism; see the same
    note on ``System._set_ids``).
    """

    collective: CollectiveSet
    index_in_set: int
    size_bytes: float
    enqueued_at: float
    chunk_id: int


class Scheduler:
    """Ready queue + dispatcher + LSQ bookkeeping for one system."""

    def __init__(
        self,
        fabric: Fabric,
        system: SystemConfig,
        events: EventQueue,
    ):
        self.fabric = fabric
        self.system = system
        #: The owning system's queue, read for the current time.
        self._events = events
        self._ready: deque[ReadyChunk] = deque()
        self._chunk_ids = itertools.count()
        self._first_phase_chunks = 0
        self._issued = 0
        self._completed = 0
        #: chunk_id -> live execution, for inspection and draining checks.
        self.in_flight: dict[int, ChunkExecution] = {}
        #: When tracing is enabled, finished executions are retained here
        #: as (ready_chunk, execution) pairs for timeline reconstruction.
        self.keep_completed = False
        self.completed_executions: list[tuple[ReadyChunk, ChunkExecution]] = []

    # -- queue state ----------------------------------------------------------

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    @property
    def in_flight_count(self) -> int:
        return len(self.in_flight)

    @property
    def idle(self) -> bool:
        return not self._ready and not self.in_flight

    # -- enqueue / dispatch -----------------------------------------------------

    def enqueue_set(self, collective: CollectiveSet, ctx: CollectiveContext) -> None:
        """Split a collective set into ready chunks and try dispatching."""
        now = self._events.now
        collective.created_at = now
        for i, size in enumerate(collective.chunk_sizes):
            self._ready.append(
                ReadyChunk(collective, i, size, enqueued_at=now,
                           chunk_id=next(self._chunk_ids)))
        # Stash the per-set context on the set for dispatch time.
        collective._ctx = ctx  # type: ignore[attr-defined]
        self._maybe_dispatch()

    def _pop_ready(self) -> ReadyChunk:
        if self.system.scheduling_policy is SchedulingPolicy.LIFO:
            return self._ready.pop()
        if self.system.scheduling_policy is SchedulingPolicy.PRIORITY:
            return self._pop_priority()
        return self._ready.popleft()

    def _pop_priority(self) -> ReadyChunk:
        """Sec. III-E first-layer prioritization: the lowest layer id wins
        (collectives without a layer go last); FIFO among equals."""
        def rank(ready: ReadyChunk):
            layer = ready.collective.layer_id
            return (layer is None, layer if layer is not None else 0,
                    ready.chunk_id)

        best_index = min(range(len(self._ready)),
                         key=lambda i: rank(self._ready[i]))
        best = self._ready[best_index]
        del self._ready[best_index]
        return best

    def _maybe_dispatch(self) -> None:
        """Fig. 7 dispatcher: if first-phase population fell below T, issue
        up to P chunks from the ready queue."""
        if self._first_phase_chunks >= self.system.dispatch_threshold:
            return
        for _ in range(self.system.dispatch_batch):
            if not self._ready:
                return
            self._issue(self._pop_ready())

    def _issue(self, ready: ReadyChunk) -> None:
        now = self._events.now
        ready.collective.breakdown.record_ready_queue(now - ready.enqueued_at)
        if ready.collective.first_issue_at is None:
            ready.collective.first_issue_at = now

        ctx: CollectiveContext = ready.collective._ctx  # type: ignore[attr-defined]
        execution = ChunkExecution(
            ctx,
            self.fabric,
            ready.collective.plan,
            ready.size_bytes,
            chunk_index=ready.index_in_set,
            on_done=lambda ce, r=ready: self._on_chunk_done(r, ce),
            on_phase_done=lambda ci, p, r=ready: self._on_phase_drained(r, p),
            label=f"set{ready.collective.set_id}/c{ready.index_in_set}",
        )
        self.in_flight[ready.chunk_id] = execution
        self._issued += 1
        if execution.plan:
            self._first_phase_chunks += 1
        execution.start()

    def _on_phase_drained(self, ready: ReadyChunk, phase_idx: int) -> None:
        """All nodes of this chunk left ``phase_idx``."""
        if phase_idx == 0:
            self._first_phase_chunks -= 1
            if self._first_phase_chunks < 0:
                raise SchedulerError("first-phase chunk count went negative")
            self._maybe_dispatch()

    def _on_chunk_done(self, ready: ReadyChunk, execution: ChunkExecution) -> None:
        del self.in_flight[ready.chunk_id]
        self._completed += 1
        if self.keep_completed:
            self.completed_executions.append((ready, execution))
        if not execution.plan:
            # Degenerate chunk (no communication dimensions): it never held
            # a first-phase slot, but its completion may still free budget.
            self._maybe_dispatch()
        ready.collective._chunk_finished(self._events.now)
