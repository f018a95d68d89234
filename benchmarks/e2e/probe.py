"""Machine-speed probe: host seconds expressed in reference seconds.

On a shared virtual machine a vCPU runs up to about 1.8 times slower for
seconds at a time while another tenant loads the same physical core;
the two vCPUs of a 2-vCPU guest slow down independently.  Wall times of
identical runs then spread by 7-36% (IQR / median over ten runs), far
beyond any useful regression bound.  The probe tracks the slowdown as
it happens: a thread of the benchmark's own process, pinned to the vCPU
that runs the measured child, times a fixed CPU-bound loop in its own
thread CPU time every 0.1 s.  The loop's duration over an operation,
divided by its duration on an idle core, is the operation's slowdown;
the operation's wall time divided by that slowdown is its time in
*reference seconds*.  On a quiet machine the two agree; the loop costs
the child about 0.4% of its CPU.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Optional

#: Loop duration (thread CPU seconds) on an idle core of the machine the
#: reference numbers were taken on; reference seconds are wall seconds
#: at that speed.
REFERENCE_LOOP_S = 355e-6
LOOP_ITERATIONS = 6000
PERIOD_S = 0.1


def _loop(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i
    return total


class SpeedProbe:
    """Samples the measuring vCPU's speed until stopped."""

    def __init__(self) -> None:
        #: The vCPU that runs every measured child and the probe loop.
        self.cpu = max(os.sched_getaffinity(0))
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while not self._samples and self._thread.is_alive():
            time.sleep(0.01)
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.is_set():
            start = time.thread_time()
            _loop(LOOP_ITERATIONS)
            self._samples.append((time.perf_counter(), time.thread_time() - start))
            self._stop.wait(PERIOD_S)

    def pin(self, pid: int, cpus: Optional[set] = None) -> None:
        """Run process ``pid`` (and the threads it starts later) on the
        probed vCPU, or on ``cpus``."""
        try:
            os.sched_setaffinity(pid, cpus or {self.cpu})
        except ProcessLookupError:
            pass  # already exited; nothing left to measure

    def slowdown(self, start: float, end: float) -> float:
        """Mean loop time over ``[start, end]`` (perf_counter) relative to
        the reference; the nearest samples stand in for a window too
        short to hold one."""
        samples = list(self._samples)
        inside = [d for t, d in samples if start <= t <= end + PERIOD_S]
        if not inside:
            inside = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - end))[:2]]
        if not inside:
            return 1.0
        return statistics.fmean(inside) / REFERENCE_LOOP_S
