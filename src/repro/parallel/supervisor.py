"""Supervised sweep execution: crash isolation, deadlines, quarantine.

A multi-hour co-design campaign (fig harness batch, chaos campaign,
``astra-repro search``) is only as robust as its weakest design point: a
single hung simulation or a worker killed by the OOM reaper must not
abort the batch and discard every completed result.  This module wraps
:class:`~repro.parallel.executor.ParallelExecutor` with a supervision
layer that keeps the batch alive:

* **Crash isolation** — every point runs in its own single-worker
  process slot, so a worker death (``BrokenProcessPool``) is attributed
  to exactly one point.  The slot's pool is rebuilt and the point is
  retried under a seeded-backoff retry budget; the other slots never
  notice.
* **Deadlines** — a per-point wall-clock deadline reaps points that hang
  (the slot worker is SIGKILLed and the point charged a timeout
  attempt), and an optional event-count budget bounds runaway
  simulations inside the engine itself.
* **Poison-point quarantine** — a point that keeps failing is recorded
  in a structured quarantine report (key, attempts, failure class, last
  traceback, diagnostic bundle in the watchdog JSON format) and the
  batch continues; ``on_poison="fail"`` aborts instead.
* **Typed partial results** — consumers receive
  :class:`PointOutcome` (ok / retried / timeout / crashed / failed /
  quarantined) instead of bare results, so sweeps and figures render
  explicit gaps, and an append-only JSONL :class:`OutcomeJournal` lets
  an interrupted campaign resume past completed *and* quarantined
  points without re-simulating either.

Determinism contract: supervision never touches simulated state.  A
retried-then-succeeded point is bit-identical to a clean run — the
seeded backoff only schedules *host* wall-clock sleeps, and every
attempt executes the same pure ``_execute_point`` the plain executor
uses (gated by the cycle-identity asserts in
``tests/parallel/test_supervisor.py`` and
``benchmarks/bench_resilience_overhead.py``).

Exit-code contract (``docs/SUPERVISION.md``): 0 — every point ok;
1 — partial (at least one point quarantined); 2 — configuration error.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time  # det: allow-file[wall-clock] supervision enforces host wall-clock deadlines by design
import traceback
from collections import deque
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from random import Random
from typing import Any, Callable, Optional, Sequence

from repro.config.fields import check, choice, integer, number
from repro.errors import (
    ConfigError,
    PoisonPointError,
    SimulationError,
)
from repro.parallel.cache import payload_to_result, result_to_payload
from repro.parallel.executor import (
    ParallelExecutor,
    PointOutcome,
    PointStatus,
    RunPoint,
    _execute_point,
    _pickle_failure,
    results_with_gaps,
    worker_pool,
)

#: Failure classes a supervised attempt can be charged with.
FAILURE_CLASSES = ("timeout", "crash", "event-budget", "error")

#: Journal format version; records with another version are ignored.
JOURNAL_SCHEMA = 1


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the supervision layer (all host-side; none simulated).

    >>> SupervisionPolicy(point_timeout_s=30.0).on_poison
    'quarantine'
    """

    #: Wall-clock deadline per attempt; ``None`` disables reaping.
    point_timeout_s: Optional[float] = number(None, gt=0)
    #: Engine-level event budget per attempt (tightens ``max_events``).
    point_event_budget: Optional[int] = integer(None, ge=1)
    #: Failed attempts re-run up to this many times (total attempts =
    #: ``max_retries + 1``) before the point is quarantined.
    max_retries: int = integer(2, ge=0)
    #: Seeded exponential backoff between retries (host sleep only).
    backoff_base_s: float = number(0.05, ge=0)
    backoff_factor: float = number(2.0, ge=1)
    backoff_max_s: float = number(1.0, ge=0)
    #: Seed of the backoff jitter stream (never touches simulation).
    seed: int = integer(2020)
    #: ``"quarantine"`` records the poison point and continues the
    #: batch; ``"fail"`` raises :class:`PoisonPointError`.
    on_poison: str = choice(("quarantine", "fail"), "quarantine")
    #: Supervision loop tick while waiting on in-flight points.
    poll_interval_s: float = number(0.05, gt=0)

    def __post_init__(self) -> None:
        check(self)

    def backoff_s(self, key: str, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt`` (>= 1).

        Seeded from ``(seed, key, attempt)`` so a campaign's retry
        timing is reproducible; the jitter spreads concurrent retries.
        """
        rng = Random(f"{self.seed}|{key}|{attempt}")
        base = self.backoff_base_s * (self.backoff_factor ** (attempt - 1))
        return min(self.backoff_max_s, base * (0.5 + rng.random()))


@dataclass
class QuarantineRecord:
    """One poison point, as reported and journaled."""

    key: str
    label: str
    attempts: int
    failure_class: str
    error: str
    traceback: Optional[str] = None
    bundle_path: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "label": self.label,
            "attempts": self.attempts,
            "failure_class": self.failure_class,
            "error": self.error,
            "traceback": self.traceback,
            "bundle_path": self.bundle_path,
        }


# -- the append-only outcome journal -----------------------------------------------


class OutcomeJournal:
    """Append-only JSONL record of supervised outcomes.

    One line per finished point, written as points complete, so an
    interrupted campaign resumes past completed *and* quarantined points
    (``load`` keeps the last record per key — re-runs append, never
    rewrite).  OK records carry the result payload, so resume works even
    without (or across) a run cache.

    Shared-path semantics: every append is a single ``write()`` on an
    ``O_APPEND`` descriptor, so concurrent writers on one local POSIX
    file serialize whole lines instead of interleaving bytes.  A process
    that must be the *only* writer (the ``astra-repro serve`` daemon)
    passes ``exclusive=True``: a ``<path>.lock`` file holding the owner
    pid is taken at construction, and a second exclusive opener fails
    fast with a :class:`~repro.errors.ConfigError` naming the live owner
    instead of silently sharing the journal.  A lock left behind by a
    killed process (the pid is dead) is reclaimed automatically.
    """

    def __init__(self, path: str, exclusive: bool = False):
        if not path:
            raise ConfigError("outcome journal needs a path")
        self.path = path
        self._lock_path: Optional[str] = None
        if exclusive:
            self._acquire_lock()

    # -- exclusive-writer lock -----------------------------------------------------

    @property
    def lock_path(self) -> str:
        return f"{self.path}.lock"

    def _acquire_lock(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        for _ in range(2):  # second pass after reclaiming a stale lock
            try:
                fd = os.open(self.lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                owner = self._lock_owner()
                if owner is not None:
                    raise ConfigError(
                        f"journal {self.path} is locked by running process "
                        f"{owner} ({self.lock_path}); two writers appending "
                        f"to one journal would interleave their records — "
                        f"point the second daemon at its own journal")
                # Stale lock from a killed owner: reclaim and retry once.
                try:
                    os.unlink(self.lock_path)
                except OSError:
                    pass
                continue
            with os.fdopen(fd, "w") as f:
                f.write(f"{os.getpid()}\n")
            self._lock_path = self.lock_path
            return
        raise ConfigError(
            f"could not acquire the journal lock {self.lock_path}; "
            f"another writer keeps recreating it")

    def _lock_owner(self) -> Optional[int]:
        """The live pid holding the lock, or ``None`` if stale/unreadable."""
        try:
            with open(self.lock_path) as f:
                pid = int(f.read().strip())
        except (OSError, ValueError):
            return None
        if pid == os.getpid():
            return None  # our own (re-entrant construction): not a conflict
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return None
        except PermissionError:
            return pid  # alive, owned by someone else
        return pid

    def close(self) -> None:
        """Release the exclusive lock (no-op for shared journals)."""
        if self._lock_path is not None:
            try:
                os.unlink(self._lock_path)
            except OSError:
                pass
            self._lock_path = None

    def __enter__(self) -> "OutcomeJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -------------------------------------------------------------------

    @staticmethod
    def load_records(path: str) -> list[dict[str, Any]]:
        """Every parseable current-schema record, in append order.

        Records from a *different* schema version (older or newer code)
        are skipped, never misread: a journal written by a future schema
        replays as empty rather than resuming from misunderstood state.
        A torn tail line from an interrupted writer is skipped too.
        """
        records: list[dict[str, Any]] = []
        try:
            with open(path) as f:
                lines = f.readlines()
        except OSError:
            return records
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write of an interrupted campaign
            if (isinstance(record, dict)
                    and record.get("schema") == JOURNAL_SCHEMA):
                records.append(record)
        return records

    @staticmethod
    def load(path: str) -> dict[str, dict[str, Any]]:
        """Key → last *outcome* record; missing file is an empty journal.

        Records of other types (the service daemon journals ``"job"``
        submission records into the same file) do not shadow outcomes.
        """
        records: dict[str, dict[str, Any]] = {}
        for record in OutcomeJournal.load_records(path):
            if (record.get("type", "outcome") == "outcome"
                    and record.get("key")):
                records[record["key"]] = record
        return records

    def append(self, record: dict[str, Any]) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        line = json.dumps({"schema": JOURNAL_SCHEMA, **record},
                          sort_keys=True) + "\n"
        # One write() on an O_APPEND fd: concurrent writers append whole
        # lines, never interleaved fragments (local POSIX filesystems).
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)


def _structural_key(fn: Any, op: Any, size: Any, index: int) -> str:
    """Positional fallback key for points the cache cannot address.

    Stable across runs of the same batch composition; a reordered batch
    re-keys (and therefore re-runs) its impure points, which is the safe
    direction to fail in.
    """
    inner = getattr(fn, "func", fn)  # functools.partial
    material = "\x1f".join((
        "supervisor-key/v1",
        getattr(inner, "__module__", "?"),
        getattr(inner, "__qualname__", type(inner).__name__),
        str(getattr(op, "value", op)),
        repr(size),
        str(index),
    ))
    return "pt-" + hashlib.sha256(material.encode()).hexdigest()


def _point_label(point: RunPoint, index: int) -> str:
    inner = getattr(point.builder, "func", point.builder)
    name = getattr(inner, "__qualname__", type(inner).__name__)
    return f"{name}[{index}]"


def _classify_exception(exc: BaseException) -> str:
    if isinstance(exc, BrokenProcessPool):
        return "crash"
    if isinstance(exc, SimulationError) and "max_events" in str(exc):
        return "event-budget"
    return "error"


# -- supervised tasks and slots ----------------------------------------------------


@dataclass
class _Task:
    """One point's supervision state across attempts."""

    index: int
    fn: Callable[[Any], Any]
    arg: Any
    key: str
    label: str
    in_parent: bool = False
    attempts: int = 0
    failure_class: Optional[str] = None
    last_error: Optional[str] = None
    last_traceback: Optional[str] = None
    not_before: float = 0.0


class _Slot:
    """One single-worker pool: at most one point in flight, so a worker
    death or deadline overrun is attributed to exactly one task."""

    __slots__ = ("pool", "task", "future", "started")

    def __init__(self) -> None:
        self.pool = worker_pool(1)
        self.task: Optional[_Task] = None
        self.future = None
        self.started = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def submit(self, task: _Task) -> None:
        self.task = task
        self.started = time.monotonic()
        self.future = self.pool.submit(task.fn, task.arg)

    def clear(self) -> None:
        self.task = None
        self.future = None

    def worker_pids(self) -> list[int]:
        processes = getattr(self.pool, "_processes", None) or {}
        return list(processes)

    def kill_workers(self) -> None:
        for pid in self.worker_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass

    def shutdown(self, kill: bool = False) -> None:
        if kill:
            self.kill_workers()
        self.pool.shutdown(wait=False, cancel_futures=True)


# -- the supervised executor -------------------------------------------------------


class SupervisedExecutor(ParallelExecutor):
    """A :class:`ParallelExecutor` whose batches survive crashes and hangs.

    Drop-in at the call sites that matter: :meth:`run_outcomes` is the
    typed entry (sweeps, figures, search); :meth:`run_points` returns
    input-ordered results with ``None`` gaps for quarantined points;
    :meth:`map_outcomes` supervises generic ordered maps (chaos).
    """

    def __init__(self, jobs: int = 1, cache=None,
                 policy: Optional[SupervisionPolicy] = None,
                 journal_path: Optional[str] = None,
                 quarantine_dir: Optional[str] = None):
        super().__init__(jobs=jobs, cache=cache)
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.journal_path = journal_path
        self.quarantine_dir = quarantine_dir
        #: Poison points recorded this executor's lifetime.
        self.quarantine: list[QuarantineRecord] = []
        #: Every attempt actually executed (failures included).
        self.attempts_total = 0
        self._slots: list[Optional[_Slot]] = []

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        for slot in self._slots:
            if slot is not None:
                slot.shutdown(kill=slot.busy)
        self._slots = []
        super().close()

    # -- typed collective batches -------------------------------------------------

    def run_outcomes(self, points: Sequence[RunPoint]) -> list[PointOutcome]:
        """Execute every point under supervision; outcomes in input order.

        Resolution order per point: journal replay (completed or
        quarantined in a prior run) → run-cache hit → supervised
        execution with deadlines, retries, and quarantine.
        """
        points = [self._with_event_budget(p) for p in points]
        outcomes: list[Optional[PointOutcome]] = [None] * len(points)
        prior = (OutcomeJournal.load(self.journal_path)
                 if self.journal_path else {})
        journal = OutcomeJournal(self.journal_path) if self.journal_path else None

        tasks: list[_Task] = []
        cache_keys: dict[int, str] = {}
        for i, point in enumerate(points):
            cache_key = self._key_for(point)
            key = cache_key or _structural_key(point.builder, point.op,
                                               float(point.size_bytes), i)
            label = _point_label(point, i)
            replay = self._replay_from_journal(prior.get(key), i, key, label)
            if replay is not None:
                outcomes[i] = replay
                continue
            if cache_key is not None:
                payload = self.cache.get(cache_key)
                if payload is not None:
                    result = payload_to_result(payload)
                    outcomes[i] = PointOutcome(
                        index=i, key=key, label=result.label,
                        status=PointStatus.OK, result=result, from_cache=True)
                    self._journal_outcome(journal, outcomes[i])
                    continue
                cache_keys[i] = cache_key
            tasks.append(_Task(index=i, fn=_execute_point, arg=point,
                               key=key, label=label,
                               in_parent=_pickle_failure(point) is not None))

        if tasks:
            self._run_supervised(tasks, outcomes, journal)

        for i, cache_key in cache_keys.items():
            outcome = outcomes[i]
            if outcome is not None and outcome.ok and not outcome.from_cache:
                self.cache.put(cache_key, result_to_payload(outcome.result,
                                                            cache_key))
        return [o for o in outcomes if o is not None]

    def run_points(self, points: Sequence[RunPoint]) -> list[Any]:
        """Supervised results in input order; quarantined points are
        explicit ``None`` gaps (the plain executor raises instead)."""
        return results_with_gaps(self.run_outcomes(points))

    # -- generic supervised map ---------------------------------------------------

    def map_outcomes(self, fn: Callable[[Any], Any],
                     items: Sequence[Any]) -> list[PointOutcome]:
        """Ordered :meth:`map` with supervision (no cache, no journal).

        Items whose ``fn(item)`` crashes a worker, hangs past the
        deadline, or keeps raising are quarantined; the rest of the map
        completes.  Unpicklable ``fn``/items degrade to in-parent
        execution (no crash isolation, errors still classified).
        """
        items = list(items)
        outcomes: list[Optional[PointOutcome]] = [None] * len(items)
        fn_unpicklable = _pickle_failure(fn) is not None
        tasks = [
            _Task(index=i, fn=fn, arg=item,
                  key=_structural_key(fn, "map", repr(item)[:128], i),
                  label=f"map[{i}]",
                  in_parent=fn_unpicklable or _pickle_failure(item) is not None)
            for i, item in enumerate(items)
        ]
        if tasks:
            self._run_supervised(tasks, outcomes, journal=None)
        return [o for o in outcomes if o is not None]

    # -- quarantine reporting -----------------------------------------------------

    def quarantine_report(self) -> dict[str, Any]:
        """The structured quarantine report for this executor's lifetime."""
        return {
            "kind": "quarantine-report",
            "policy": {
                "point_timeout_s": self.policy.point_timeout_s,
                "point_event_budget": self.policy.point_event_budget,
                "max_retries": self.policy.max_retries,
                "on_poison": self.policy.on_poison,
            },
            "quarantined": [record.to_dict() for record in self.quarantine],
        }

    def write_quarantine_report(self, path: str) -> str:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.quarantine_report(), f, indent=2, sort_keys=True)
            f.write("\n")
        return path

    def quarantine_summary(self) -> Optional[str]:
        if not self.quarantine:
            return None
        lines = [f"quarantine: {len(self.quarantine)} poison point(s)"]
        for record in self.quarantine:
            lines.append(
                f"  {record.label}: {record.failure_class} after "
                f"{record.attempts} attempt(s) — {record.error}")
        return "\n".join(lines)

    # -- internals ----------------------------------------------------------------

    def _with_event_budget(self, point: RunPoint) -> RunPoint:
        budget = self.policy.point_event_budget
        if budget is None:
            return point
        capped = budget if point.max_events is None \
            else min(point.max_events, budget)
        return replace(point, max_events=capped)

    def _replay_from_journal(self, record: Optional[dict], index: int,
                             key: str, label: str) -> Optional[PointOutcome]:
        if record is None:
            return None
        status = record.get("status")
        if status in ("ok", "retried") and record.get("payload"):
            result = payload_to_result(record["payload"])
            return PointOutcome(index=index, key=key, label=result.label,
                                status=PointStatus(status), result=result,
                                from_journal=True)
        if status in ("timeout", "crashed", "failed", "quarantined"):
            return PointOutcome(
                index=index, key=key, label=record.get("label", label),
                status=PointStatus.QUARANTINED,
                failure_class=record.get("failure_class"),
                error=record.get("error"), from_journal=True)
        return None

    def _journal_outcome(self, journal: Optional[OutcomeJournal],
                         outcome: PointOutcome) -> None:
        if journal is None:
            return
        record: dict[str, Any] = {
            "type": "outcome",
            "key": outcome.key,
            "label": outcome.label,
            "status": outcome.status.value,
            "attempts": outcome.attempts,
        }
        if outcome.ok and outcome.result is not None:
            record["payload"] = result_to_payload(outcome.result, outcome.key)
        else:
            record["failure_class"] = outcome.failure_class
            record["error"] = outcome.error
        journal.append(record)

    def _ensure_slots(self) -> list[Optional[_Slot]]:
        if len(self._slots) != self.jobs:
            for slot in self._slots:
                if slot is not None:
                    slot.shutdown()
            self._slots = [None] * self.jobs
        return self._slots

    def _run_supervised(self, tasks: list[_Task],
                        outcomes: list[Optional[PointOutcome]],
                        journal: Optional[OutcomeJournal]) -> None:
        queue: deque[_Task] = deque(tasks)
        slots = self._ensure_slots()
        try:
            while queue or any(s is not None and s.busy for s in slots):
                now = time.monotonic()
                self._fill_slots(slots, queue, outcomes, journal, now)
                progressed = self._service_slots(slots, queue, outcomes,
                                                 journal)
                if not progressed:
                    self._idle_wait(slots, queue)
        except BaseException:
            # Poison-fail or a genuine bug: reap in-flight workers so the
            # batch does not leave orphaned simulations running.
            for i, slot in enumerate(slots):
                if slot is not None and slot.busy:
                    slot.shutdown(kill=True)
                    slots[i] = None
            raise

    def _fill_slots(self, slots: list[Optional[_Slot]], queue: deque,
                    outcomes: list[Optional[PointOutcome]],
                    journal: Optional[OutcomeJournal], now: float) -> None:
        for s in range(len(slots)):
            if not queue:
                return
            slot = slots[s]
            if slot is not None and slot.busy:
                continue
            task = self._next_ready(queue, now)
            if task is None:
                return
            if task.in_parent:
                # Unpicklable point: no crash isolation, no deadline —
                # run it here, still classified and retried/quarantined.
                self._run_in_parent(task, queue, outcomes, journal)
                continue
            if slot is None:
                slot = slots[s] = _Slot()
            slot.submit(task)

    @staticmethod
    def _next_ready(queue: deque, now: float) -> Optional[_Task]:
        for _ in range(len(queue)):
            task = queue.popleft()
            if task.not_before <= now:
                return task
            queue.append(task)
        return None

    def _service_slots(self, slots: list[Optional[_Slot]], queue: deque,
                       outcomes: list[Optional[PointOutcome]],
                       journal: Optional[OutcomeJournal]) -> bool:
        progressed = False
        timeout_s = self.policy.point_timeout_s
        for s, slot in enumerate(slots):
            if slot is None or not slot.busy:
                continue
            if slot.future.done():
                task, future = slot.task, slot.future
                slot.clear()
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    slots[s] = self._replace_slot(slot)
                    self._record_failure(task, "crash",
                                         f"worker process died: {exc}",
                                         None, queue, outcomes, journal)
                except Exception as exc:
                    self._record_failure(task, _classify_exception(exc),
                                         f"{type(exc).__name__}: {exc}",
                                         traceback.format_exc(), queue,
                                         outcomes, journal)
                else:
                    self._record_success(task, result, outcomes, journal)
                progressed = True
            elif (timeout_s is not None
                  and time.monotonic() - slot.started >= timeout_s):
                task = slot.task
                slot.kill_workers()
                try:
                    slot.future.result(timeout=10.0)
                except Exception:
                    pass  # BrokenProcessPool from the kill, by design
                slot.clear()
                slots[s] = self._replace_slot(slot)
                self._record_failure(
                    task, "timeout",
                    f"exceeded the {timeout_s:g}s point deadline "
                    f"(worker reaped)", None, queue, outcomes, journal)
                progressed = True
        return progressed

    @staticmethod
    def _replace_slot(slot: _Slot) -> None:
        """Retire a broken slot pool; a fresh one is built on next use."""
        slot.shutdown()
        return None

    def _idle_wait(self, slots: list[Optional[_Slot]], queue: deque) -> None:
        futures = [s.future for s in slots if s is not None and s.busy]
        if futures:
            wait(futures, timeout=self.policy.poll_interval_s)
            return
        # Everything pending is backing off: sleep to the earliest gate.
        if queue:
            now = time.monotonic()
            earliest = min(task.not_before for task in queue)
            time.sleep(min(self.policy.poll_interval_s,
                           max(0.0, earliest - now)))

    def _run_in_parent(self, task: _Task, queue: deque,
                       outcomes: list[Optional[PointOutcome]],
                       journal: Optional[OutcomeJournal]) -> None:
        try:
            if task.fn is _execute_point:
                result = _execute_point(task.arg, keep_system=True)
            else:
                result = task.fn(task.arg)
        except Exception as exc:
            self._record_failure(task, _classify_exception(exc),
                                 f"{type(exc).__name__}: {exc}",
                                 traceback.format_exc(), queue, outcomes,
                                 journal)
        else:
            self._record_success(task, result, outcomes, journal)

    def _record_success(self, task: _Task, result: Any,
                        outcomes: list[Optional[PointOutcome]],
                        journal: Optional[OutcomeJournal]) -> None:
        self.simulations_run += 1
        self.attempts_total += 1
        status = PointStatus.RETRIED if task.attempts else PointStatus.OK
        outcome = PointOutcome(
            index=task.index, key=task.key,
            label=getattr(result, "label", task.label), status=status,
            result=result, attempts=task.attempts + 1)
        outcomes[task.index] = outcome
        self._journal_outcome(journal, outcome)

    def _record_failure(self, task: _Task, failure_class: str, error: str,
                        tb: Optional[str], queue: deque,
                        outcomes: list[Optional[PointOutcome]],
                        journal: Optional[OutcomeJournal]) -> None:
        self.attempts_total += 1
        task.attempts += 1
        task.failure_class = failure_class
        task.last_error = error
        task.last_traceback = tb
        if task.attempts <= self.policy.max_retries:
            task.not_before = (time.monotonic()
                               + self.policy.backoff_s(task.key, task.attempts))
            queue.append(task)
            return
        self._quarantine(task, outcomes, journal)

    def _quarantine(self, task: _Task,
                    outcomes: list[Optional[PointOutcome]],
                    journal: Optional[OutcomeJournal]) -> None:
        record = QuarantineRecord(
            key=task.key, label=task.label, attempts=task.attempts,
            failure_class=task.failure_class or "error",
            error=task.last_error or "", traceback=task.last_traceback)
        if self.quarantine_dir:
            record.bundle_path = self._write_poison_bundle(record)
        self.quarantine.append(record)
        status = {
            "timeout": PointStatus.TIMEOUT,
            "crash": PointStatus.CRASHED,
        }.get(record.failure_class, PointStatus.FAILED)
        outcome = PointOutcome(
            index=task.index, key=task.key, label=task.label, status=status,
            attempts=task.attempts, failure_class=record.failure_class,
            error=record.error, bundle_path=record.bundle_path)
        outcomes[task.index] = outcome
        self._journal_outcome(journal, outcome)
        if self.policy.on_poison == "fail":
            raise PoisonPointError(
                f"poison point {task.label}: {record.failure_class} after "
                f"{task.attempts} attempt(s) — {record.error}")

    def _write_poison_bundle(self, record: QuarantineRecord) -> str:
        from repro.resilience.bundles import write_bundle

        payload = {
            "kind": "poison-point",
            "key": record.key,
            "label": record.label,
            "attempts": record.attempts,
            "failure_class": record.failure_class,
            "error": record.error,
            "traceback": record.traceback,
            "diagnostics": {
                "point_timeout_s": self.policy.point_timeout_s,
                "point_event_budget": self.policy.point_event_budget,
                "max_retries": self.policy.max_retries,
            },
        }
        return write_bundle(self.quarantine_dir,
                            f"poison-{record.key[:16]}", payload)
