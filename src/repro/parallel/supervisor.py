"""Supervision policy and persistence: deadlines, retries, quarantine, resume.

A multi-hour co-design campaign (fig harness batch, chaos campaign,
``astra-repro search``) is only as robust as its weakest design point: a
single hung simulation or a worker killed by the OOM reaper must not
abort the batch and discard every completed result.  Handing a
:class:`SupervisionPolicy` to :class:`~repro.parallel.executor.ParallelExecutor`
makes its task loop keep the batch alive:

* **Crash isolation** — every point runs in its own single-worker
  process slot, so a worker death (``BrokenProcessPool``) is attributed
  to exactly one point.  The slot is retired and the point is retried
  under a seeded-backoff retry budget; the other slots never notice.
* **Deadlines** — a per-point wall-clock deadline reaps points that hang
  (the slot worker is SIGKILLed and the point charged a timeout
  attempt), and an optional event-count budget bounds runaway
  simulations inside the engine itself.
* **Poison-point quarantine** — a point that keeps failing is recorded
  in a structured quarantine report (:class:`QuarantineRecord`: key,
  attempts, failure class, last traceback, diagnostic bundle in the
  watchdog JSON format) and the batch continues; ``on_poison="fail"``
  aborts instead.
* **Typed partial results** — consumers receive
  :class:`~repro.parallel.executor.PointOutcome` (ok / retried / timeout /
  crashed / failed / quarantined) instead of bare results, so sweeps and
  figures render explicit gaps, and an append-only JSONL
  :class:`OutcomeJournal` lets an interrupted campaign resume past
  completed *and* quarantined points without re-simulating either.

This module holds the policy and what supervision persists (journal,
quarantine records, poison bundles); the task loop lives in the
executor, and only supervised runs import this module.

Determinism contract: supervision never touches simulated state.  A
retried-then-succeeded point is bit-identical to a clean run — the
seeded backoff only schedules *host* wall-clock sleeps, and every
attempt executes the same pure ``_execute_point`` an unsupervised run
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
from dataclasses import dataclass
from random import Random
from typing import Any, Optional

from repro.config.fields import check, choice, integer, number
from repro.errors import ConfigError
from repro.parallel.cache import payload_to_result, result_to_payload
from repro.parallel.executor import PointOutcome, PointStatus

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
    #: Task-loop tick while waiting on in-flight points.
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
        # Incremental reader state (see read()): the file read so far,
        # how far its complete lines go, and the outcomes they hold.
        self._inode: Optional[int] = None
        self._offset = 0
        self._index: dict[str, dict[str, Any]] = {}
        self._tail: dict[str, dict[str, Any]] = {}
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

    def read(self) -> list[dict[str, Any]]:
        """Parse what was appended since the last read; returns those
        records and folds their outcomes into :attr:`outcomes`.

        The reader remembers the file's inode and the byte offset of the
        last complete line it parsed, so a long-lived reader (the
        executor of a daemon that runs one batch per job) parses each
        line once, whoever appended it.  A file that shrank or was
        replaced is read again from the start.  An unterminated tail
        line is parsed but not consumed: it counts while it is the tail,
        and is parsed again, whole or torn, once more bytes arrive.

        Records from a *different* schema version (older or newer code)
        are skipped, never misread: a journal written by a future schema
        replays as empty rather than resuming from misunderstood state.
        A torn line from an interrupted writer is skipped too.
        """
        try:
            f = open(self.path, "rb")
        except OSError:
            self._restart(None)
            return []
        with f:
            stat = os.fstat(f.fileno())
            if stat.st_ino != self._inode or stat.st_size < self._offset:
                self._restart(stat.st_ino)
            f.seek(self._offset)
            data = f.read()
        end = data.rfind(b"\n") + 1
        self._offset += end
        records = _parse_lines(data[:end])
        for record in records:
            if _is_outcome(record):
                self._index[record["key"]] = record
        tail = _parse_lines(data[end:])
        self._tail = {record["key"]: record for record in tail
                      if _is_outcome(record)}
        return records + tail

    def _restart(self, inode: Optional[int]) -> None:
        self._inode = inode
        self._offset = 0
        self._index = {}
        self._tail = {}

    @property
    def outcomes(self) -> dict[str, dict[str, Any]]:
        """Key → last *outcome* record, as of the last :meth:`read`."""
        return {**self._index, **self._tail} if self._tail else self._index

    @staticmethod
    def load_records(path: str) -> list[dict[str, Any]]:
        """Every parseable current-schema record, in append order."""
        return OutcomeJournal(path).read()

    @staticmethod
    def load(path: str) -> dict[str, dict[str, Any]]:
        """Key → last *outcome* record; missing file is an empty journal.

        Records of other types (the service daemon journals ``"job"``
        submission records into the same file) do not shadow outcomes.
        """
        journal = OutcomeJournal(path)
        journal.read()
        return journal.outcomes

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

    def append_outcome(self, outcome: PointOutcome) -> None:
        """Journal one finished point; OK records carry the payload."""
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
        self.append(record)


def _parse_lines(data: bytes) -> list[dict[str, Any]]:
    """The current-schema records among ``data``'s lines (split the way
    text-mode ``readlines`` splits: ``\\n``, ``\\r\\n`` or ``\\r``)."""
    records = []
    for line in data.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn write of an interrupted writer, or not UTF-8
        if isinstance(record, dict) and record.get("schema") == JOURNAL_SCHEMA:
            records.append(record)
    return records


def _is_outcome(record: dict[str, Any]) -> bool:
    return record.get("type", "outcome") == "outcome" and bool(record.get("key"))


def structural_key(fn: Any, op: Any, size: Any, index: int) -> str:
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


def replay_outcome(record: dict[str, Any], index: int, key: str,
                   label: str) -> Optional[PointOutcome]:
    """The outcome a prior run journaled for ``key``, or ``None`` when
    the record does not settle the point (it must run again)."""
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


def write_poison_bundle(directory: str, record: QuarantineRecord,
                        policy: SupervisionPolicy) -> str:
    """Write one poison point's diagnostic bundle; returns its path."""
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
            "point_timeout_s": policy.point_timeout_s,
            "point_event_budget": policy.point_event_budget,
            "max_retries": policy.max_retries,
        },
    }
    return write_bundle(directory, f"poison-{record.key[:16]}", payload)


def quarantine_summary(records: list[QuarantineRecord]) -> str:
    """One line per poison point, for a terminal."""
    lines = [f"quarantine: {len(records)} poison point(s)"]
    for record in records:
        lines.append(f"  {record.label}: {record.failure_class} after "
                     f"{record.attempts} attempt(s) — {record.error}")
    return "\n".join(lines)


def write_quarantine_report(path: str, policy: SupervisionPolicy,
                            records: list[QuarantineRecord]) -> str:
    """Write the structured report of a run's poison points."""
    report = {
        "kind": "quarantine-report",
        "policy": {
            "point_timeout_s": policy.point_timeout_s,
            "point_event_budget": policy.point_event_budget,
            "max_retries": policy.max_retries,
            "on_poison": policy.on_poison,
        },
        "quarantined": [record.to_dict() for record in records],
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
