"""Process-parallel experiment execution with deterministic results.

Every design-space point (one :class:`~repro.harness.runners.PlatformSpec`
x collective x payload) is an independent simulation, so the harnesses
can fan points out across CPU cores — the simulations themselves are
single-threaded Python, which makes worker processes the only way to make
exploration wall-clock-bound by cores instead of by the interpreter.

One task loop runs every batch.  A task runs in the parent when it
cannot be pickled (e.g. an ad-hoc closure), or when the executor is
unsupervised and either ``jobs=1`` or the batch has one pending point —
exactly the pre-parallel harness loop, with no process module imported.
Every other task runs in a *slot* (:mod:`repro.parallel.slots`): a
one-worker process pool holding one task at a time, so a worker death or
a hang is charged to exactly that task.  With a :class:`~repro.parallel.supervisor.SupervisionPolicy` the
loop adds deadlines, seeded-backoff retries, quarantine and an outcome
journal (docs/SUPERVISION.md); without one, a failing point's own
exception propagates and in-flight slots are reaped.

Determinism contract: a point's result depends only on the point (no
process-global counter leaks into simulated timing — asserted by the
serial-vs-parallel tests), so ``jobs=4`` produces bit-identical
``duration_cycles`` and breakdowns to ``jobs=1``, in the same stable
input order, whether a task ran in the parent or in a slot.

A :class:`~repro.parallel.cache.RunCache` can front the executor: cached
points are never executed (or even dispatched), and fresh results are
stored on the way out.
"""

from __future__ import annotations

import enum
import functools
import time  # det: allow-file[wall-clock] deadlines and retry backoff are host-side by design
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.errors import (
    EXIT_OK,
    EXIT_PARTIAL,
    PoisonPointError,
    ReproError,
    SimulationError,
)

if TYPE_CHECKING:
    from repro.harness.runners import PlatformSpec
    from repro.parallel.cache import RunCache
    from repro.parallel.slots import Slots
    from repro.parallel.supervisor import (
        OutcomeJournal,
        QuarantineRecord,
        SupervisionPolicy,
    )


@dataclass(frozen=True)
class RunPoint:
    """One design-space point: build a platform, run one collective.

    ``builder`` is a zero-argument callable returning a fresh
    :class:`~repro.harness.runners.PlatformSpec`.  To run in a worker
    process it must be picklable — a module-level function or a
    ``functools.partial`` over one (the per-figure harnesses provide
    exactly that); anything else falls back to in-parent execution.
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
    """How one design point ended.  Only a supervised executor (one with
    a :class:`~repro.parallel.supervisor.SupervisionPolicy`) produces
    anything but ``OK``; an unsupervised one raises instead."""

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


def _execute_point(point: RunPoint, keep_system: bool = False,
                   spec: Optional[PlatformSpec] = None) -> Any:
    """Run one point to completion (worker-process entry).

    By default the :class:`CollectiveResult` comes back with ``system``
    stripped — the live system holds the event queue's closures and
    cannot (and should not) cross a process boundary.  In-parent
    execution passes ``keep_system=True`` so callers that need the
    finished system (CLI profile reporting) still get it, and the
    ``spec`` the cache key was computed from, if any, so the point's
    platform is built once.
    """
    from repro.harness.runners import MAX_EVENTS, run_collective

    max_events = point.max_events if point.max_events is not None else MAX_EVENTS
    on_system = writer = None
    if point.progress_path:
        from repro.service.progress import ProgressWriter

        writer = ProgressWriter(point.progress_path,
                                every_events=point.progress_every_events)
        on_system = writer.bind
    result = run_collective(spec if spec is not None else point.builder(),
                            point.op, point.size_bytes,
                            max_events=max_events, sanitize=point.sanitize,
                            on_system=on_system)
    if writer is not None:
        writer.finish(result)
    return result if keep_system else replace(result, system=None)


def _point_label(point: RunPoint, index: int) -> str:
    inner = getattr(point.builder, "func", point.builder)
    name = getattr(inner, "__qualname__", type(inner).__name__)
    return f"{name}[{index}]"


class _Task:
    """One point's state across attempts."""

    __slots__ = ("index", "arg", "key", "label", "spec", "in_parent",
                 "attempts", "not_before")

    def __init__(self, index: int, arg: Any, key: str, label: str,
                 spec: Optional[PlatformSpec] = None) -> None:
        self.index, self.arg, self.key, self.label = index, arg, key, label
        #: The platform built for the cache key; an in-parent run reuses it.
        self.spec = spec
        self.in_parent = False
        self.attempts = 0
        self.not_before = 0.0


def _next_ready(queue: deque, now: float) -> Optional[_Task]:
    """Pop the first task whose backoff gate has passed (order kept)."""
    for _ in range(len(queue)):
        task = queue.popleft()
        if task.not_before <= now:
            return task
        queue.append(task)
    return None


class ParallelExecutor:
    """Runs independent simulation points in the parent or in slots.

    ``policy`` supervises every batch (deadlines, retries, quarantine);
    a ``journal_path`` or ``quarantine_dir`` implies the default
    :class:`~repro.parallel.supervisor.SupervisionPolicy`.

    >>> ex = ParallelExecutor(jobs=1)
    >>> [o.result for o in ex.map_outcomes(abs, [-2, -1, 3])]
    [2, 1, 3]
    """

    def __init__(self, jobs: int = 1, cache: Optional[RunCache] = None,
                 policy: Optional[SupervisionPolicy] = None,
                 journal_path: Optional[str] = None,
                 quarantine_dir: Optional[str] = None):
        if jobs < 1:
            raise ReproError(f"executor jobs must be >= 1, got {jobs}")
        if policy is None and (journal_path or quarantine_dir):
            from repro.parallel.supervisor import SupervisionPolicy

            policy = SupervisionPolicy()
        self.jobs = jobs
        self.cache = cache
        #: Supervision knobs; ``None`` runs every batch unsupervised.
        self.policy = policy
        #: The outcome journal, one reader for the executor's lifetime:
        #: each batch parses only the lines appended since the last.
        self.journal: Optional[OutcomeJournal] = None
        if journal_path:
            from repro.parallel.supervisor import OutcomeJournal

            self.journal = OutcomeJournal(journal_path)
        self.quarantine_dir = quarantine_dir
        #: Simulations actually executed (cache hits excluded).
        self.simulations_run = 0
        #: Every attempt actually executed (failures included).
        self.attempts_total = 0
        #: Poison points recorded this executor's lifetime.
        self.quarantine: list[QuarantineRecord] = []
        self._degrade_logged = False
        # Slots are forked on first use and *reused* across batches: a
        # search issues one batch per generation, a figure bench one per
        # panel, and re-forking workers per batch would eat most of the
        # speedup.
        self._slots: Optional[Slots] = None

    def close(self) -> None:
        """Shut every slot down (idempotent; slots respawn on use)."""
        if self._slots is not None:
            self._slots.close()
            self._slots = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- batches ------------------------------------------------------------------

    def run_outcomes(self, points: Sequence[RunPoint]) -> list[PointOutcome]:
        """Execute every point; typed outcomes in input order.

        Resolution order per point: journal replay (completed or
        quarantined in a prior run) → run-cache hit → execution.  Fresh
        results are stored in the cache.  Unsupervised, a failing point
        raises its own exception, so every outcome that comes back is OK.
        """
        outcomes: list[Any] = [None] * len(points)
        prior: dict[str, dict] = {}
        journal = self.journal
        if self.policy is not None:
            from repro.parallel.supervisor import replay_outcome, structural_key

            budget = self.policy.point_event_budget
            if budget is not None:
                points = [replace(p, max_events=budget if p.max_events is None
                                  else min(p.max_events, budget)) for p in points]
        if journal is not None:
            journal.read()
            prior = journal.outcomes

        tasks: list[_Task] = []
        cache_keys: dict[int, str] = {}
        for i, point in enumerate(points):
            cache_key, spec = self._key_for(point)
            key = cache_key or ("" if self.policy is None else structural_key(
                point.builder, point.op, float(point.size_bytes), i))
            label = _point_label(point, i)
            if key in prior:
                outcomes[i] = replay_outcome(prior[key], i, key, label)
                if outcomes[i] is not None:
                    continue
            if cache_key is not None:
                payload = self.cache.get(cache_key)  # type: ignore[union-attr]
                if payload is not None:
                    from repro.parallel.cache import payload_to_result

                    result = payload_to_result(payload)
                    outcomes[i] = PointOutcome(
                        index=i, key=key, label=result.label,
                        status=PointStatus.OK, result=result, from_cache=True)
                    if journal is not None:
                        journal.append_outcome(outcomes[i])
                    continue
                cache_keys[i] = cache_key
            tasks.append(_Task(index=i, arg=point, key=key, label=label, spec=spec))

        if tasks:
            self._run_tasks(_execute_point, tasks, outcomes, journal)
        for i, cache_key in cache_keys.items():
            if outcomes[i].ok:
                from repro.parallel.cache import result_to_payload

                self.cache.put(cache_key, result_to_payload(  # type: ignore[union-attr]
                    outcomes[i].result, cache_key))
        return outcomes

    def run_points(self, points: Sequence[RunPoint]) -> list[Any]:
        """Results in input order; a point quarantined under supervision
        is an explicit ``None`` gap."""
        return results_with_gaps(self.run_outcomes(points))

    def map_outcomes(self, fn: Callable[[Any], Any],
                     items: Sequence[Any]) -> list[PointOutcome]:
        """``fn(item)`` for every item as outcomes in input order (no
        cache, no journal).

        Results never depend on where an item ran (asserted by the chaos
        job-count tests).  Under supervision an item whose call crashes a
        worker, hangs past the deadline or keeps raising is quarantined
        and the rest of the map completes.
        """
        items = list(items)
        keys = [""] * len(items)
        if self.policy is not None:
            from repro.parallel.supervisor import structural_key

            keys = [structural_key(fn, "map", repr(item)[:128], i)
                    for i, item in enumerate(items)]
        tasks = [_Task(index=i, arg=item, key=keys[i], label=f"map[{i}]")
                 for i, item in enumerate(items)]
        outcomes: list[Any] = [None] * len(tasks)
        if tasks:
            self._run_tasks(fn, tasks, outcomes, None)
        return outcomes

    def cache_summary(self) -> Optional[str]:
        return self.cache.summary() if self.cache is not None else None

    # -- the task loop ------------------------------------------------------------

    def _key_for(self, point: RunPoint) -> tuple[Optional[str], Optional[PlatformSpec]]:
        """Cache key for ``point``, or None (cache off / point impure),
        with the spec it was computed from when the point is cacheable.

        The spec is built in the parent for keying — spec construction is
        cheap (dataclasses only; the topology is not built until the run
        itself) — and an in-parent run executes that same spec.  An
        uncacheable spec (faults, a watchdog, a backend factory, the
        transport) may hold run state, so it is not handed on.
        """
        if self.cache is None or point.sanitize:
            return None, None
        from repro.parallel.cache import collective_cache_key

        spec = point.builder()
        key = collective_cache_key(spec, point.op, point.size_bytes)
        return key, spec if key is not None else None

    def _unpicklable(self, obj: Any) -> bool:
        """Whether ``obj`` must run in the parent; logged once per executor.

        Only the types CPython raises for genuinely unpicklable objects
        (closures, lambdas, local classes, live handles) count.  Anything
        *else* raised while pickling is a bug in the object's own
        ``__reduce__``/``__getstate__`` and propagates.
        """
        # Imported here: an unsupervised serial batch never probes.
        import pickle

        try:
            pickle.dumps(obj)
        except (pickle.PicklingError, TypeError, AttributeError) as failure:
            if not self._degrade_logged:
                self._degrade_logged = True
                # Imported here: this warning is logging's only use, and a
                # run that never degrades should not pay for the import.
                import logging

                logging.getLogger("repro.parallel").warning(
                    "work item is not picklable (%s: %s); running it "
                    "in the parent instead of in a worker process",
                    type(failure).__name__, failure)
            return True
        return False

    def _place(self, fn: Callable[[Any], Any], tasks: list[_Task]) -> None:
        """Mark the tasks that run in the parent; the rest go to slots.

        Unsupervised serial batches are not pickle-probed at all.
        """
        if self.policy is None and (self.jobs == 1 or len(tasks) == 1):
            for task in tasks:
                task.in_parent = True
            return
        fn_local = self._unpicklable(fn)
        for task in tasks:
            task.in_parent = fn_local or self._unpicklable(task.arg)

    def _run_tasks(self, fn: Callable[[Any], Any], tasks: list[_Task],
                   outcomes: list[Any],
                   journal: Optional[OutcomeJournal]) -> None:
        self._place(fn, tasks)
        slot_queue = deque(t for t in tasks if not t.in_parent)
        parent_queue = deque(t for t in tasks if t.in_parent)
        if slot_queue and self._slots is None:
            from repro.parallel.slots import Slots

            self._slots = Slots(self.jobs)
        slots = self._slots
        timeout_s = self.policy.point_timeout_s if self.policy else None
        try:
            while (slot_queue or parent_queue
                   or (slots is not None and slots.busy())):
                now = time.monotonic()
                if slots is not None:
                    slots.fill(fn, functools.partial(_next_ready, slot_queue, now))
                # One parent task per pass, so slots are refilled between.
                task = _next_ready(parent_queue, now)
                if task is not None:
                    self._run_in_parent(fn, task, parent_queue, outcomes,
                                        journal)
                progressed = task is not None
                for done, result, exc, kind in (
                        slots.finished(timeout_s) if slots is not None else ()):
                    progressed = True
                    if kind == "done":
                        self._record_success(done, result, outcomes, journal)
                    elif kind == "timeout":
                        self._charge(done, "timeout",
                                     f"exceeded the {timeout_s:g}s point "
                                     f"deadline (worker reaped)", None,
                                     slot_queue, outcomes, journal)
                    else:
                        self._fail(done, exc, kind == "crash", slot_queue,
                                   outcomes, journal)
                if not progressed:
                    self._idle_wait(slot_queue, parent_queue)
        except BaseException:
            # A re-raised point error, poison-fail or a genuine bug: reap
            # in-flight workers so the batch leaves no simulation running.
            if slots is not None:
                slots.reap()
            raise

    def _idle_wait(self, *queues: deque) -> None:
        if self._slots is not None and self._slots.busy():
            self._slots.wait_first(
                self.policy.poll_interval_s if self.policy else None)
            return
        # Everything pending is backing off (supervised only): sleep to
        # the earliest gate.
        pending = [task.not_before for queue in queues for task in queue]
        if pending and self.policy is not None:
            time.sleep(min(self.policy.poll_interval_s,
                           max(0.0, min(pending) - time.monotonic())))

    def _run_in_parent(self, fn: Callable[[Any], Any], task: _Task,
                       queue: deque, outcomes: list[Any],
                       journal: Optional[OutcomeJournal]) -> None:
        """Run one task here: no crash isolation and no deadline, but a
        supervised failure is still classified, retried and quarantined."""
        try:
            if fn is _execute_point:
                result = _execute_point(task.arg, keep_system=True, spec=task.spec)
            else:
                result = fn(task.arg)
        except Exception as exc:
            self._fail(task, exc, False, queue, outcomes, journal)
        else:
            self._record_success(task, result, outcomes, journal)

    def _record_success(self, task: _Task, result: Any, outcomes: list[Any],
                        journal: Optional[OutcomeJournal]) -> None:
        self.simulations_run += 1
        self.attempts_total += 1
        outcomes[task.index] = outcome = PointOutcome(
            index=task.index, key=task.key,
            label=getattr(result, "label", task.label),
            status=PointStatus.RETRIED if task.attempts else PointStatus.OK,
            result=result, attempts=task.attempts + 1)
        if journal is not None:
            journal.append_outcome(outcome)

    def _fail(self, task: _Task, exc: Exception, crashed: bool, queue: deque,
              outcomes: list[Any], journal: Optional[OutcomeJournal]) -> None:
        """Charge an attempt that raised ``exc`` (``crashed``: its worker
        died); unsupervised, re-raise the point's own exception."""
        if self.policy is None:
            raise exc
        if crashed:
            self._charge(task, "crash", f"worker process died: {exc}", None,
                         queue, outcomes, journal)
            return
        import traceback

        budget = isinstance(exc, SimulationError) and "max_events" in str(exc)
        self._charge(task, "event-budget" if budget else "error",
                     f"{type(exc).__name__}: {exc}",
                     "".join(traceback.format_exception(exc)), queue,
                     outcomes, journal)

    def _charge(self, task: _Task, failure_class: str, error: str,
                tb: Optional[str], queue: deque, outcomes: list[Any],
                journal: Optional[OutcomeJournal]) -> None:
        """Record one failed supervised attempt: retry or quarantine."""
        policy = self.policy
        assert policy is not None
        self.attempts_total += 1
        task.attempts += 1
        if task.attempts <= policy.max_retries:
            task.not_before = (time.monotonic()
                               + policy.backoff_s(task.key, task.attempts))
            queue.append(task)
            return
        from repro.parallel.supervisor import (
            QuarantineRecord,
            write_poison_bundle,
        )

        record = QuarantineRecord(
            key=task.key, label=task.label, attempts=task.attempts,
            failure_class=failure_class, error=error, traceback=tb)
        if self.quarantine_dir:
            record.bundle_path = write_poison_bundle(self.quarantine_dir,
                                                     record, policy)
        self.quarantine.append(record)
        status = {
            "timeout": PointStatus.TIMEOUT,
            "crash": PointStatus.CRASHED,
        }.get(failure_class, PointStatus.FAILED)
        outcomes[task.index] = outcome = PointOutcome(
            index=task.index, key=task.key, label=task.label, status=status,
            attempts=task.attempts, failure_class=failure_class,
            error=error, bundle_path=record.bundle_path)
        if journal is not None:
            journal.append_outcome(outcome)
        if policy.on_poison == "fail":
            raise PoisonPointError(
                f"poison point {task.label}: {failure_class} after "
                f"{task.attempts} attempt(s) — {error}")


# -- process-global default executor ----------------------------------------------
#
# The CLI configures one executor from its global --jobs/--cache-dir
# flags; harness entry points (run_sweep under the fig runners and the
# bandwidth test, chaos) pick it up implicitly so every layer that fans out work parallelizes
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
                      supervision: Optional[SupervisionPolicy] = None,
                      journal_path: Optional[str] = None,
                      quarantine_dir: Optional[str] = None) -> ParallelExecutor:
    """Build + install the default executor from CLI-level knobs.

    A :class:`~repro.parallel.supervisor.SupervisionPolicy` (or a
    journal/quarantine path, which implies the default policy) makes
    every batch supervised, so every harness entry point inherits crash
    isolation and deadlines without changing its call sites.
    """
    cache = None
    if cache_dir and use_cache:
        from repro.parallel.cache import RunCache

        cache = RunCache(cache_dir)
    executor = ParallelExecutor(jobs=jobs, cache=cache, policy=supervision,
                                journal_path=journal_path,
                                quarantine_dir=quarantine_dir)
    set_default_executor(executor)
    return executor
