"""Worker slots: the executor's only multi-process path.

A slot is a one-worker process pool holding at most one task, so a
worker death (``BrokenProcessPool``) or a deadline overrun is charged to
exactly that task.  :class:`~repro.parallel.executor.ParallelExecutor`
imports this module for the first batch that hands a task to a worker,
so a serial command never loads ``concurrent.futures`` or
``multiprocessing``.
"""

from __future__ import annotations

import os
import signal
import threading
import time  # det: allow-file[wall-clock] deadlines and the parent watch are host-side by design
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, Optional

#: Seconds between a slot worker's checks that its parent is alive.
PARENT_POLL_S = 0.2


def _exit_with_parent() -> None:
    """Slot-worker initializer: end the worker once its owner is gone.

    An owner that dies without shutting its slots down (SIGKILL, the OOM
    killer) would leave its workers running their jobs to the end —
    minutes for a large point — with the owner's pipes still open.  A
    daemon thread polls the parent pid and exits the worker as soon as it
    has been reparented.  Polling rather than ``PR_SET_PDEATHSIG``: the
    kernel ties that signal to the *thread* that forked the worker, and
    slots fork from whichever thread submits work (the serve daemon's job
    thread, for one).
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


class _Slot:
    """One single-worker pool with at most one task in flight."""

    __slots__ = ("pool", "task", "future", "started")

    def __init__(self) -> None:
        self.pool = ProcessPoolExecutor(max_workers=1,
                                        initializer=_exit_with_parent)
        self.task: Any = None
        self.future: Any = None
        self.started = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def shutdown(self, kill: bool = False, wait: bool = False) -> None:
        """Retire the pool; ``kill`` SIGKILLs a worker still running a task."""
        if kill:
            for pid in list(getattr(self.pool, "_processes", None) or {}):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.pool.shutdown(wait=wait, cancel_futures=True)


class Slots:
    """An executor's ``jobs`` slots, each forked on first use and reused
    across batches; a crashed or reaped slot is replaced on next use."""

    def __init__(self, jobs: int) -> None:
        self._slots: list[Optional[_Slot]] = [None] * jobs

    def busy(self) -> bool:
        return any(s is not None and s.busy for s in self._slots)

    def fill(self, fn: Callable[[Any], Any],
             take: Callable[[], Any]) -> None:
        """Start ``fn(task.arg)`` for ``take()``'s tasks on every free slot
        (``take`` returns ``None`` when no task is ready)."""
        for s, slot in enumerate(self._slots):
            if slot is not None and slot.busy:
                continue
            task = take()
            if task is None:
                return
            if slot is None:
                slot = self._slots[s] = _Slot()
            slot.task, slot.started = task, time.monotonic()
            slot.future = slot.pool.submit(fn, task.arg)

    def finished(self, timeout_s: Optional[float]
                 ) -> Iterator[tuple[Any, Any, Any, str]]:
        """``(task, result, error, kind)`` for every slot whose task ended.

        ``kind`` is ``"done"``, ``"raised"``, ``"crash"`` (the worker
        died) or ``"timeout"`` (it ran past ``timeout_s`` and was
        SIGKILLed).  The slot is idle, or retired, when its task is
        yielded.
        """
        for s, slot in enumerate(self._slots):
            if slot is None or not slot.busy:
                continue
            task, future = slot.task, slot.future
            result: Any = None
            error: Optional[Exception] = None
            if future.done():
                slot.task = slot.future = None
                try:
                    result, kind = future.result(), "done"
                except BrokenProcessPool as exc:
                    slot.shutdown()
                    self._slots[s] = None
                    error, kind = exc, "crash"
                except Exception as exc:
                    error, kind = exc, "raised"
            elif (timeout_s is not None
                  and time.monotonic() - slot.started >= timeout_s):
                slot.shutdown(kill=True)
                self._slots[s] = None
                kind = "timeout"
            else:
                continue
            yield task, result, error, kind

    def wait_first(self, timeout: Optional[float]) -> None:
        """Block until the first busy slot finishes, or ``timeout`` passes.

        ``FIRST_COMPLETED``: a slot that finishes early is refilled at
        once instead of idling until its busiest sibling finishes.
        """
        wait([s.future for s in self._slots if s is not None and s.busy],
             timeout=timeout, return_when=FIRST_COMPLETED)

    def reap(self) -> None:
        """SIGKILL every in-flight task so a failed batch leaves none running."""
        for s, slot in enumerate(self._slots):
            if slot is not None and slot.busy:
                slot.shutdown(kill=True)
                self._slots[s] = None

    def close(self) -> None:
        """Shut every slot down: wait for idle workers, kill busy ones."""
        for slot in self._slots:
            if slot is not None:
                slot.shutdown(kill=slot.busy, wait=not slot.busy)
