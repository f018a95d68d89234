"""Process-parallel experiment execution with deterministic results.

Every design-space point (one :class:`~repro.harness.runners.PlatformSpec`
x collective x payload) is an independent simulation, so the harnesses
can fan points out across CPU cores — the simulations themselves are
single-threaded Python, which makes process pools the only way to make
exploration wall-clock-bound by cores instead of by the interpreter.

Determinism contract: a point's result depends only on the point (no
process-global counter leaks into simulated timing — asserted by the
serial-vs-parallel tests), so ``jobs=4`` produces bit-identical
``duration_cycles`` and breakdowns to ``jobs=1``, in the same stable
input order.  ``jobs=1`` never touches a pool: it runs points in-process
in order, exactly like the pre-parallel harness loop.

Points whose builder cannot be pickled (e.g. an ad-hoc closure) degrade
gracefully: they run in the parent process while everything picklable
runs in the pool.

A :class:`~repro.parallel.cache.RunCache` can front the executor: cached
points are never executed (or even dispatched), and fresh results are
stored on the way out.
"""

from __future__ import annotations

import enum
import os
import pickle
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.errors import EXIT_OK, EXIT_PARTIAL, ReproError
from repro.parallel.cache import (
    RunCache,
    collective_cache_key,
    payload_to_result,
    result_to_payload,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


@dataclass(frozen=True)
class RunPoint:
    """One design-space point: build a platform, run one collective.

    ``builder`` is a zero-argument callable returning a fresh
    :class:`~repro.harness.runners.PlatformSpec`.  For process-parallel
    execution it must be picklable — a module-level function or a
    ``functools.partial`` over one (the per-figure harnesses provide
    exactly that); anything else silently falls back to in-process
    execution.
    """

    builder: Callable[[], Any]
    op: Any
    size_bytes: float
    max_events: Optional[int] = None
    sanitize: bool = False
    #: When set, the executing worker writes progress-vector snapshots
    #: (simulated time, events processed, the watchdog progress vector)
    #: to this file as the run advances — the serve daemon streams them
    #: to its clients (docs/SERVICE.md).  Purely observational: the
    #: snapshots never touch the simulated schedule or the cache key.
    progress_path: Optional[str] = None
    #: Snapshot cadence in logical events (only with ``progress_path``).
    progress_every_events: int = 4096


class PointStatus(enum.Enum):
    """How one design point ended.  Only the supervisor
    (:mod:`repro.parallel.supervisor`) produces anything but ``OK``."""

    #: Completed on the first attempt (or served from cache/journal).
    OK = "ok"
    #: Completed after at least one failed attempt — result is
    #: bit-identical to a clean run (determinism contract).
    RETRIED = "retried"
    #: Exhausted its retry budget on wall-clock deadline overruns.
    TIMEOUT = "timeout"
    #: Exhausted its retry budget on worker deaths (BrokenProcessPool).
    CRASHED = "crashed"
    #: Exhausted its retry budget on in-simulation errors.
    FAILED = "failed"
    #: Skipped without running: a resumed journal had already
    #: quarantined this point.
    QUARANTINED = "quarantined"


#: Statuses that carry a usable result.
_OK_STATUSES = frozenset({PointStatus.OK, PointStatus.RETRIED})
#: Terminal-failure statuses (the point is in quarantine).
_POISON_STATUSES = frozenset({PointStatus.TIMEOUT, PointStatus.CRASHED,
                              PointStatus.FAILED, PointStatus.QUARANTINED})


@dataclass
class PointOutcome:
    """Typed result of one design point (:meth:`ParallelExecutor.run_outcomes`)."""

    index: int
    key: str
    label: str
    status: PointStatus
    #: The CollectiveResult (or map return value); ``None`` on poison.
    result: Optional[Any] = None
    #: Total attempts executed this run (0 for cache/journal replays).
    attempts: int = 0
    failure_class: Optional[str] = None
    error: Optional[str] = None
    bundle_path: Optional[str] = None
    from_cache: bool = False
    from_journal: bool = False

    @property
    def ok(self) -> bool:
        return self.status in _OK_STATUSES

    @property
    def quarantined(self) -> bool:
        return self.status in _POISON_STATUSES

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "label": self.label,
            "status": self.status.value,
            "attempts": self.attempts,
            "failure_class": self.failure_class,
            "error": self.error,
            "bundle_path": self.bundle_path,
            "from_cache": self.from_cache,
            "from_journal": self.from_journal,
        }


def results_with_gaps(outcomes: Sequence[PointOutcome]) -> list[Optional[Any]]:
    """Input-ordered results; quarantined points are explicit ``None`` gaps."""
    return [o.result for o in outcomes]


def exit_code_for(outcomes: Sequence[PointOutcome]) -> int:
    """The documented CLI exit code for a batch: 0 all-ok, 1 partial."""
    return EXIT_OK if all(o.ok for o in outcomes) else EXIT_PARTIAL


def _execute_point(point: RunPoint, keep_system: bool = False) -> Any:
    """Run one point to completion (worker-process entry).

    By default the :class:`CollectiveResult` comes back with ``system``
    stripped — the live system holds the event queue's closures and
    cannot (and should not) cross a process boundary.  In-process
    execution passes ``keep_system=True`` so callers that need the
    finished system (CLI profile reporting) still get it.
    """
    from repro.harness.runners import MAX_EVENTS, run_collective

    max_events = point.max_events if point.max_events is not None else MAX_EVENTS
    on_system = writer = None
    if point.progress_path:
        from repro.service.progress import ProgressWriter

        writer = ProgressWriter(point.progress_path,
                                every_events=point.progress_every_events)
        on_system = writer.bind
    result = run_collective(point.builder(), point.op, point.size_bytes,
                            max_events=max_events, sanitize=point.sanitize,
                            on_system=on_system)
    if writer is not None:
        writer.finish(result)
    return result if keep_system else replace(result, system=None)


#: Seconds between a pool worker's checks that its parent is alive.
PARENT_POLL_S = 0.2


def _exit_with_parent() -> None:
    """Pool-worker initializer: end the worker once its owner is gone.

    An owner that dies without shutting its pool down (SIGKILL, the OOM
    killer) would leave its workers running their jobs to the end —
    minutes for a large point — with the owner's pipes still open.  A
    daemon thread polls the parent pid and exits the worker as soon as it
    has been reparented.  Polling rather than ``PR_SET_PDEATHSIG``: the
    kernel ties that signal to the *thread* that forked the worker, and
    pools grow from whichever thread submits work (the serve daemon's job
    thread, for one).
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def worker_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers exit when the owning process dies.

    ``concurrent.futures`` (and with it ``multiprocessing``) is imported
    here, on the first parallel batch, not by every serial command.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers, initializer=_exit_with_parent)


#: The exception types CPython raises for genuinely unpicklable objects
#: (closures, lambdas, local classes, live handles).  Anything *else*
#: raised during pickling is a bug in the object's own
#: ``__reduce__``/``__getstate__`` and must propagate, not be silently
#: mistaken for "impure point — run it serially".
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


def _pickle_failure(obj: Any) -> Optional[BaseException]:
    """The serialization error that makes ``obj`` unpicklable, or None."""
    try:
        pickle.dumps(obj)
    except _PICKLE_ERRORS as exc:
        return exc
    return None


class ParallelExecutor:
    """Runs independent simulation points, optionally across processes.

    >>> ex = ParallelExecutor(jobs=1)
    >>> ex.map(abs, [-2, -1, 3])
    [2, 1, 3]
    """

    def __init__(self, jobs: int = 1, cache: Optional[RunCache] = None):
        if jobs < 1:
            raise ReproError(f"executor jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        #: Simulations actually executed (cache hits excluded).
        self.simulations_run = 0
        self._degrade_logged = False
        # The worker pool is created lazily on the first parallel batch
        # and *reused* across run_points()/map() calls: a figure harness
        # issues several sweeps back-to-back, and re-forking workers per
        # sweep would eat most of the speedup on short sweeps.
        self._pool: Optional[ProcessPoolExecutor] = None

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = worker_pool(self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; pool respawns on use)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- collective points --------------------------------------------------------

    def run_points(self, points: Sequence[RunPoint]) -> list[Any]:
        """Execute every point; results in input order, cache consulted.

        Cache hits are rebuilt from their stored payload without running
        (or dispatching) anything; misses execute — in-process for
        ``jobs=1``, across a process pool otherwise — and are stored.
        """
        points = list(points)
        results: list[Any] = [None] * len(points)
        keys: dict[int, str] = {}
        pending: list[tuple[int, RunPoint]] = []

        for i, point in enumerate(points):
            key = self._key_for(point)
            if key is not None:
                payload = self.cache.get(key)  # type: ignore[union-attr]
                if payload is not None:
                    results[i] = payload_to_result(payload)
                    continue
                keys[i] = key
            pending.append((i, point))

        if pending:
            self._execute_pending(pending, results)
            for i, key in keys.items():
                if results[i] is not None:
                    self.cache.put(key, result_to_payload(results[i], key))  # type: ignore[union-attr]
        return results

    def run_outcomes(self, points: Sequence[RunPoint]) -> list[PointOutcome]:
        """Typed outcomes for a batch (:class:`PointOutcome`).

        The plain executor has no supervision: any failure raises
        exactly as :meth:`run_points` always has, so every outcome that
        comes back is OK by construction.
        :class:`~repro.parallel.supervisor.SupervisedExecutor` overrides
        this with deadlines, retries, and quarantine.
        """
        return [PointOutcome(index=i, key="", label=getattr(result, "label", ""),
                             status=PointStatus.OK, result=result, attempts=1)
                for i, result in enumerate(self.run_points(points))]

    def _local_reason(self, obj: Any) -> Optional[BaseException]:
        """Why ``obj`` must run in-process (None = picklable, pool ok).

        A genuine serialization failure degrades to serial execution and
        is logged once per executor; any other pickling-time error
        propagates from :func:`_pickle_failure`.
        """
        failure = _pickle_failure(obj)
        if failure is not None and not self._degrade_logged:
            self._degrade_logged = True
            # Imported here: this warning is logging's only use, and a
            # run that never degrades should not pay for the import.
            import logging

            logging.getLogger("repro.parallel").warning(
                "work item is not picklable (%s: %s); running it "
                "in-process instead of in the worker pool",
                type(failure).__name__, failure)
        return failure

    def _key_for(self, point: RunPoint) -> Optional[str]:
        """Cache key for ``point``, or None (cache off / point impure).

        Builds the spec once in the parent purely for keying — spec
        construction is cheap (dataclasses only; the topology is not
        built until the run itself).
        """
        if self.cache is None or point.sanitize:
            return None
        return collective_cache_key(point.builder(), point.op, point.size_bytes)

    def _execute_pending(self, pending: list[tuple[int, RunPoint]],
                         results: list[Any]) -> None:
        if self.jobs == 1 or len(pending) == 1:
            for i, point in pending:
                results[i] = _execute_point(point, keep_system=True)
                self.simulations_run += 1
            return

        remote: list[tuple[int, RunPoint]] = []
        local: list[tuple[int, RunPoint]] = []
        for i, point in pending:
            if self._local_reason(point) is None:
                remote.append((i, point))
            else:
                local.append((i, point))
        if remote:
            pool = self._get_pool()
            futures = {pool.submit(_execute_point, point): i
                       for i, point in remote}
            for future in futures:
                results[futures[future]] = future.result()
                self.simulations_run += 1
        for i, point in local:
            results[i] = _execute_point(point, keep_system=True)
            self.simulations_run += 1

    # -- generic ordered map ------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """``[fn(x) for x in items]``, fanned across processes when possible.

        Results keep input order regardless of completion order.  Falls
        back to the in-process loop when ``jobs=1``, for a single item,
        or when ``fn``/an item cannot be pickled — the fallback is
        exactly the serial loop, so results never depend on the path
        taken (asserted by the chaos job-count tests).
        """
        items = list(items)
        if self.jobs == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if (self._local_reason(fn) is not None
                or any(self._local_reason(it) is not None for it in items)):
            return [fn(item) for item in items]
        from concurrent.futures import FIRST_COMPLETED, wait

        results: list[Any] = [None] * len(items)
        pool = self._get_pool()
        futures = {pool.submit(fn, item): i for i, item in enumerate(items)}
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in done:
                results[futures[future]] = future.result()
        return results

    def cache_summary(self) -> Optional[str]:
        return self.cache.summary() if self.cache is not None else None


# -- process-global default executor ----------------------------------------------
#
# The CLI configures one executor from its global --jobs/--cache-dir
# flags; harness entry points (sweep_collective, the fig runners, chaos)
# pick it up implicitly so every layer that fans out work parallelizes
# without threading an executor argument through every call site.

_default_executor: Optional[ParallelExecutor] = None


def set_default_executor(executor: Optional[ParallelExecutor]) -> None:
    """Install (or clear, with ``None``) the process-wide default."""
    global _default_executor
    _default_executor = executor


def default_executor() -> ParallelExecutor:
    """The installed default, or a fresh serial/no-cache executor."""
    if _default_executor is not None:
        return _default_executor
    return ParallelExecutor(jobs=1)


def configure_default(jobs: int = 1, cache_dir: Optional[str] = None,
                      use_cache: bool = True, *,
                      supervision: Optional[Any] = None,
                      journal_path: Optional[str] = None,
                      quarantine_dir: Optional[str] = None) -> ParallelExecutor:
    """Build + install the default executor from CLI-level knobs.

    Passing a :class:`~repro.parallel.supervisor.SupervisionPolicy` (or a
    journal/quarantine path) upgrades the default to a
    :class:`~repro.parallel.supervisor.SupervisedExecutor`, so every
    harness entry point inherits crash isolation and deadlines without
    changing its call sites.
    """
    cache = RunCache(cache_dir) if (cache_dir and use_cache) else None
    if supervision is not None or journal_path or quarantine_dir:
        from repro.parallel.supervisor import (
            SupervisedExecutor,
            SupervisionPolicy,
        )

        executor: ParallelExecutor = SupervisedExecutor(
            jobs=jobs, cache=cache,
            policy=supervision if supervision is not None else SupervisionPolicy(),
            journal_path=journal_path, quarantine_dir=quarantine_dir)
    else:
        executor = ParallelExecutor(jobs=jobs, cache=cache)
    set_default_executor(executor)
    return executor
