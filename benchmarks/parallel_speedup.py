"""Fig. 9 co-design grid speedup gate: ``--jobs N`` vs serial, bit-identical.

Runs every feasible design of ``examples/configs/search_fig09.json`` (the
312-point exhaustive grid behind the Fig. 9 co-design search, 4 MB
all-reduce on 8 NPUs) as one batch, serially and through an N-slot
executor, asserts every point's ``duration_cycles`` and delay breakdown
are identical, and reports the wall-clock speedup.  The serial batch
takes about a second, so worker start-up does not dominate the ratio
(the full Fig. 9 sweep, 16 points in about 0.1 s, could not be sped up).

CI (perf-smoke, a 4-core runner) enforces ``--min-speedup 2.5``; on a
single-core box run it with the default ``--min-speedup 0`` to check
determinism only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.parallel.executor import ParallelExecutor, RunPoint
from repro.search.space import SearchSpace

SPACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "examples", "configs", "search_fig09.json")


def _grid_points() -> list[RunPoint]:
    space = SearchSpace.from_file(SPACE)
    return [RunPoint(builder=space.decode(genome).platform_spec,
                     op=space.collective, size_bytes=space.size_bytes)
            for genome in space.enumerate_genomes()]


def _run_with(jobs: int, points: list[RunPoint]):
    with ParallelExecutor(jobs=jobs) as executor:
        start = time.perf_counter()
        results = executor.run_points(points)
        # Timed region includes slot start-up: the gate measures what a
        # user actually gets from --jobs, fork overhead included.
        return results, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail below this wall-clock speedup (0: only "
                             "check determinism)")
    args = parser.parse_args(argv)

    points = _grid_points()
    serial, serial_s = _run_with(1, points)
    parallel, parallel_s = _run_with(args.jobs, points)

    mismatches = 0
    for a, b in zip(serial, parallel):
        if (a.duration_cycles != b.duration_cycles
                or a.breakdown.as_dict() != b.breakdown.as_dict()):
            print(f"MISMATCH: {a.label} @ {a.size_bytes:,.0f} B: "
                  f"{a.duration_cycles} vs {b.duration_cycles}",
                  file=sys.stderr)
            mismatches += 1
    if mismatches or len(serial) != len(parallel):
        print(f"{mismatches} point(s) diverged between jobs=1 and "
              f"jobs={args.jobs}", file=sys.stderr)
        return 1

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"fig09 co-design grid ({len(points)} points): jobs=1 "
          f"{serial_s:.2f}s, jobs={args.jobs} {parallel_s:.2f}s -> "
          f"{speedup:.2f}x speedup, all points bit-identical")
    if speedup < args.min_speedup:
        print(f"speedup {speedup:.2f}x below required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
