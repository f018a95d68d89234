"""Parallel design-space execution: process pools + cache + supervision.

Three pieces (docs/PERFORMANCE.md, docs/SUPERVISION.md):

* :class:`ParallelExecutor` — runs independent design-space points
  across a process pool (``jobs > 1``) or deterministically in-process
  (``jobs = 1``), preserving input order and bit-identical per-point
  results either way.
* :class:`RunCache` — a content-addressed store keyed on the canonical
  simulation config + topology + op + size + backend + code salt, so
  repeated points across figures and re-runs are free.
* :class:`SupervisedExecutor` — crash-isolated, deadline-bounded
  batches: worker deaths retry under a seeded backoff budget, hangs are
  reaped, poison points are quarantined with diagnostic bundles, and
  typed :class:`PointOutcome` partial results journal to an append-only
  JSONL so interrupted campaigns resume.

The package re-exports the executor and the cache; the supervisor, which
loads :mod:`multiprocessing`, is imported from
:mod:`repro.parallel.supervisor` by the commands that supervise.

The CLI's global ``--jobs`` / ``--cache-dir`` / ``--no-cache`` flags
configure a process-wide default executor that the harness entry points
(:func:`repro.harness.runners.sweep_collective`, the per-figure
runners, ``astra-repro chaos``) pick up implicitly.
"""

from repro.parallel.cache import (
    CACHE_SALT,
    CacheStats,
    RunCache,
    collective_cache_key,
    payload_to_result,
    result_to_payload,
)
from repro.parallel.executor import (
    ParallelExecutor,
    PointOutcome,
    PointStatus,
    RunPoint,
    configure_default,
    default_executor,
    exit_code_for,
    results_with_gaps,
    set_default_executor,
)

__all__ = [
    "CACHE_SALT",
    "CacheStats",
    "ParallelExecutor",
    "PointOutcome",
    "PointStatus",
    "RunCache",
    "RunPoint",
    "collective_cache_key",
    "configure_default",
    "default_executor",
    "exit_code_for",
    "payload_to_result",
    "result_to_payload",
    "results_with_gaps",
    "set_default_executor",
]
