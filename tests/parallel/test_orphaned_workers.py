"""Pool workers exit when the process that owns their pool dies.

An owner killed with SIGKILL cannot shut its pool down.  Each case starts
an owner process whose every worker is busy with a long job, kills the
owner, and requires all of its workers to be gone within a few seconds.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: Owner programs, each running two long jobs (one per worker).
OWNERS = {
    "executor": "ParallelExecutor(jobs=2).map(job, [0, 1])",
    "supervisor": "SupervisedExecutor(jobs=2).map_outcomes(job, [0, 1])",
}

OWNER = """\
import functools, sys
sys.path.insert(0, {here!r})
from _supervision_helpers import report_pid_and_sleep
from repro.parallel import ParallelExecutor
from repro.parallel.supervisor import SupervisedExecutor
job = functools.partial(report_pid_and_sleep, {pid_dir!r})
{call}
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def _wait_for(predicate, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_workers_exit_when_their_owner_is_killed(owner, tmp_path):
    pid_dir = str(tmp_path)
    script = OWNER.format(here=HERE, pid_dir=pid_dir, call=OWNERS[owner])
    proc = subprocess.Popen([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=SRC))

    def reported() -> list[int]:
        pids = []
        for name in os.listdir(pid_dir):
            if not name.endswith(".tmp"):
                with open(os.path.join(pid_dir, name)) as f:
                    pids.append(int(f.read()))
        return pids

    try:
        assert _wait_for(lambda: len(reported()) == 2 or proc.poll() is not None, 60.0)
        assert proc.poll() is None, "the owner exited before both jobs started"
        workers = reported()
        assert all(_alive(pid) for pid in workers)
        proc.kill()
        proc.wait(timeout=10)
        _wait_for(lambda: not any(_alive(pid) for pid in workers), 5.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    survivors = [pid for pid in workers if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"workers {survivors} outlived their killed owner"
