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
from repro.errors import SimulationError
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


def raise_once_sibling_started(pid_dir: str, *_):
    """Raise :class:`SimulationError` once the sibling sleeper (item 1 of
    :func:`report_pid_and_sleep`) has reported its pid, so the failure
    surely lands while that sibling is in flight."""
    deadline = time.monotonic() + 30.0
    while (not os.path.exists(os.path.join(pid_dir, "1"))
           and time.monotonic() < deadline):
        time.sleep(0.01)
    raise SimulationError("injected simulation failure")


def fail_first_sleep_rest(pid_dir: str, x: int):
    """Map item: 0 raises once 1 is running; the rest report and sleep."""
    if x == 0:
        raise_once_sibling_started(pid_dir)
    return report_pid_and_sleep(pid_dir, x)


def clock_after(x: int):
    """Map item: item 0 takes 2 s, the rest are instant; each returns the
    wall-clock time it finished at, read in the worker."""
    if x == 0:
        time.sleep(2.0)
    return time.time()


def alive(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def wait_for(predicate, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def reported_pids(pid_dir: str) -> list[int]:
    """Pids written by :func:`report_pid_and_sleep` into ``pid_dir``."""
    pids = []
    for name in os.listdir(pid_dir):
        if not name.endswith(".tmp"):
            with open(os.path.join(pid_dir, name)) as f:
                pids.append(int(f.read()))
    return pids


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
