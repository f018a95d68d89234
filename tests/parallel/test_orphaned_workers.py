"""Slot workers exit when the process that owns their executor dies.

An owner killed with SIGKILL cannot shut its slots down.  The owner
process keeps both of its slots busy with a long job each, is killed,
and all of its workers must be gone within a few seconds.
"""

import os
import signal
import subprocess
import sys

import pytest

from _supervision_helpers import alive, reported_pids, wait_for

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: Owner program: two long jobs, one per slot.
OWNER = """\
import functools, sys
sys.path.insert(0, {here!r})
from _supervision_helpers import report_pid_and_sleep
from repro.parallel import ParallelExecutor
job = functools.partial(report_pid_and_sleep, {pid_dir!r})
ParallelExecutor(jobs=2).map_outcomes(job, [0, 1])
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
def test_workers_exit_when_their_owner_is_killed(tmp_path):
    pid_dir = str(tmp_path)
    script = OWNER.format(here=HERE, pid_dir=pid_dir)
    proc = subprocess.Popen([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=SRC))

    try:
        assert wait_for(lambda: len(reported_pids(pid_dir)) == 2
                        or proc.poll() is not None, 60.0)
        assert proc.poll() is None, "the owner exited before both jobs started"
        workers = reported_pids(pid_dir)
        assert all(alive(pid) for pid in workers)
        proc.kill()
        proc.wait(timeout=10)
        wait_for(lambda: not any(alive(pid) for pid in workers), 5.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    survivors = [pid for pid in workers if alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"workers {survivors} outlived their killed owner"
