"""Module-level fault injectors for the supervision tests.

Everything here must be importable by name from a pool worker, so these
are plain module-level functions (``functools.partial`` over them stays
picklable).  The crashers kill *only the worker process they run in* —
each one is armed by a marker file created on the first call, so a retry
of the same point takes the clean path and the batch can finish.
"""

import os
import signal
import time

from repro.config.parameters import TorusShape
from repro.harness.runners import torus_platform


def small_torus():
    return torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)


def crash_once_builder(marker_path: str):
    """SIGKILL the current (worker) process on the first call; build the
    small torus platform on every later call.

    The marker file is created *before* the kill so the state survives
    the process death; the retry sees it and proceeds normally.
    """
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as f:
            f.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return small_torus()


def always_crash_builder():
    """SIGKILL the current (worker) process on every call."""
    os.kill(os.getpid(), signal.SIGKILL)


def hang_builder(sleep_s: float = 60.0):
    """Sleep far past any test deadline, then build normally (the
    supervisor must have reaped the worker long before this returns)."""
    time.sleep(sleep_s)
    return small_torus()


def always_raise_builder():
    raise ValueError("injected builder failure")


def crash_once_then(marker_path: str, builder):
    """Generic injector: first call SIGKILLs its worker, later calls
    delegate to ``builder`` — wrap any harness builder with
    ``functools.partial(crash_once_then, marker, builder)``."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as f:
            f.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return builder()


def hang_forever(builder):
    """Generic injector: sleep far past any test deadline before
    delegating (the supervisor must reap the worker first)."""
    time.sleep(60.0)
    return builder()


def flaky_square(marker_dir: str, x: int):
    """``x * x``, but x == 1 SIGKILLs its worker on the first attempt."""
    marker = os.path.join(marker_dir, f"flaky-{x}")
    if x == 1 and not os.path.exists(marker):
        with open(marker, "w") as f:
            f.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def hang_if_two(x: int):
    if x == 2:
        time.sleep(60.0)
    return x * x


def report_pid_and_sleep(pid_dir: str, x: int):
    """Write this worker's pid to ``pid_dir/<x>``, then sleep far past any
    test deadline (the orphan tests kill the pool's owner meanwhile)."""
    path = os.path.join(pid_dir, str(x))
    with open(path + ".tmp", "w") as f:
        f.write(str(os.getpid()))
    os.replace(path + ".tmp", path)
    time.sleep(60.0)
    return x


def append_journal_lines(path: str, writer_id: int, count: int):
    """Append ``count`` outcome records from one concurrent writer.

    Used by the shared-journal race tests: several processes run this
    simultaneously against one path, and every written line must come
    back whole (O_APPEND single-write atomicity)."""
    from repro.parallel.supervisor import OutcomeJournal

    journal = OutcomeJournal(path)
    for i in range(count):
        journal.append({"type": "outcome", "key": f"w{writer_id}-k{i}",
                        "status": "ok", "writer": writer_id, "seq": i,
                        "padding": "x" * 256})
    return writer_id


def hold_journal_lock(path: str, acquired_path: str, release_path: str):
    """Take the exclusive journal lock and hold it until told to release.

    Runs in a live subprocess so the lock's owner pid passes the
    ``os.kill(pid, 0)`` liveness probe in the parent's test."""
    from repro.parallel.supervisor import OutcomeJournal

    journal = OutcomeJournal(path, exclusive=True)
    # Write-then-rename: the parent polls for the file and must never
    # read it before the pid is in it.
    with open(acquired_path + ".tmp", "w") as f:
        f.write(str(os.getpid()))
    os.replace(acquired_path + ".tmp", acquired_path)
    while not os.path.exists(release_path):
        time.sleep(0.02)
    journal.close()
    return os.getpid()
