"""Parallel design-space execution: one executor + cache + supervision.

Two pieces and a policy (docs/PERFORMANCE.md, docs/SUPERVISION.md):

* :class:`ParallelExecutor` — runs independent design-space points
  through one task loop, in the parent or in one-worker process slots,
  preserving input order and bit-identical per-point results either way.
* :class:`RunCache` — a content-addressed store keyed on the canonical
  simulation config + topology + op + size + backend + code salt, so
  repeated points across figures and re-runs are free.
* :class:`~repro.parallel.supervisor.SupervisionPolicy` — handed to the
  executor, it makes batches crash-isolated and deadline-bounded: worker
  deaths retry under a seeded backoff budget, hangs are reaped, poison
  points are quarantined with diagnostic bundles, and typed
  :class:`~repro.parallel.executor.PointOutcome` partial results journal
  to an append-only JSONL so interrupted campaigns resume.

The package root names the executor and the cache.  The cache (and the
``json`` and stats modules under it) loads on first use of the name, so
a run without ``--cache-dir`` never imports it; the policy and the
journal are imported from :mod:`repro.parallel.supervisor` by the
commands that supervise.

The CLI's global ``--jobs`` / ``--cache-dir`` / ``--no-cache`` flags
configure a process-wide default executor that the harness entry points
(:func:`repro.harness.runners.sweep_collective`, the per-figure
runners, ``astra-repro chaos``) pick up implicitly.
"""

from typing import Any

from repro.parallel.executor import ParallelExecutor

__all__ = ["ParallelExecutor", "RunCache"]


def __getattr__(name: str) -> Any:
    if name != "RunCache":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.parallel.cache import RunCache

    return RunCache
