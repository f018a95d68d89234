"""Collective sets: the top granularity of Table II.

One *set* is one collective operation requested by the workload layer
(e.g. layer 17's weight-gradient all-reduce).  The set splits into
``preferred_set_splits`` chunks that the scheduler pipelines through the
multi-phase plan independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.collectives.types import CollectiveOp, PhaseSpec
from repro.errors import CollectiveError
from repro.system.stats import DelayBreakdown
from repro.dims import Dimension

_set_ids = itertools.count()

CompletionCallback = Callable[["CollectiveSet"], None]


def split_into_chunks(total_bytes: float, preferred_splits: int) -> list[float]:
    """Split a set into chunk sizes (Table II: chunk count is the
    pipelining parameter).  Equal-size chunks; tiny sets collapse to a
    single chunk so chunk sizes stay meaningful (>= 1 KB guideline).

    >>> split_into_chunks(16384, 4)
    [4096.0, 4096.0, 4096.0, 4096.0]
    """
    if total_bytes <= 0:
        raise CollectiveError(f"set size must be positive: {total_bytes}")
    if preferred_splits < 1:
        raise CollectiveError(f"preferred_splits must be >= 1: {preferred_splits}")
    splits = min(preferred_splits, max(1, int(total_bytes // 1024)))
    return [total_bytes / splits] * splits


@dataclass
class CollectiveSet:
    """One requested collective plus its runtime bookkeeping."""

    op: CollectiveOp
    total_bytes: float
    plan: list[PhaseSpec]
    chunk_sizes: list[float]
    scope: Optional[tuple[Dimension, ...]] = None
    layer_id: Optional[int] = None
    name: str = ""
    reduction_cycles_per_kb: float = 1.0
    set_id: int = field(default_factory=lambda: next(_set_ids))

    created_at: float = 0.0
    first_issue_at: Optional[float] = None
    finished_at: Optional[float] = None
    chunks_done: int = 0
    breakdown: DelayBreakdown = field(default_factory=DelayBreakdown)
    _callbacks: list[CompletionCallback] = field(default_factory=list)

    @property
    def num_chunks(self) -> int:
        return len(self.chunk_sizes)

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def duration_cycles(self) -> float:
        """Raw communication time: request to completion (Figs. 13/14)."""
        if self.finished_at is None:
            raise CollectiveError(f"set {self.set_id} ({self.name}) not finished")
        return self.finished_at - self.created_at

    def on_complete(self, callback: CompletionCallback) -> None:
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _chunk_finished(self, now: float) -> None:
        self.chunks_done += 1
        if self.chunks_done > self.num_chunks:
            raise CollectiveError(f"set {self.set_id} over-completed")
        if self.chunks_done == self.num_chunks:
            self.finished_at = now
            self.breakdown.compact()
            callbacks, self._callbacks = self._callbacks, []
            for callback in callbacks:
                callback(self)
