"""Supervision smoke gate: a sweep with an injected crash and hang.

Runs a small Fig. 9 all-reduce batch through a supervised executor (a
``ParallelExecutor`` with a ``SupervisionPolicy``) with two faults
injected:

* one point SIGKILLs its worker on the first attempt (must be retried
  and land bit-identical to a clean run), and
* one point hangs past the per-point deadline (must be reaped and
  quarantined, leaving an explicit gap in the partial figure).

The script exercises the full partial-result contract end to end: the
batch finishes, the quarantine report and outcome journal are written,
the partial rows print with a gap, a resumed run replays the journal
without simulating anything, and the process exits 1 (partial results)
per the documented exit-code contract — CI asserts exactly that.
"""

from __future__ import annotations

import argparse
import functools
import os
import signal
import sys
import time
from dataclasses import replace

from repro.collectives.types import CollectiveOp
from repro.harness import fig09
from repro.harness.runners import Sweep
from repro.parallel.executor import (
    ParallelExecutor,
    PointStatus,
    RunPoint,
    exit_code_for,
    results_with_gaps,
)
from repro.parallel.supervisor import (
    SupervisionPolicy,
    quarantine_summary,
    write_quarantine_report,
)

SIZES = [64 * 1024.0, 256 * 1024.0]


def crash_once(marker_path: str, builder):
    """SIGKILL the worker on the first attempt, then build normally."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as f:
            f.write(str(os.getpid()))
        os.kill(os.getpid(), signal.SIGKILL)
    return builder()


def hang(builder):
    """Sleep far past the deadline; the supervisor reaps the worker."""
    time.sleep(600.0)
    return builder()


def _faulty_points(marker_path: str):
    """The Fig. 9 all-reduce batch in ``fig09.run``'s order (the alltoall
    series, then the torus series) with point 0 crashing once and point 2
    hanging."""
    points = [RunPoint(builder=builder, op=CollectiveOp.ALL_REDUCE,
                       size_bytes=size)
              for builder in (fig09._alltoall, fig09._torus)
              for size in SIZES]
    points[0] = replace(points[0], builder=functools.partial(
        crash_once, marker_path, fig09._alltoall))
    points[2] = replace(points[2], builder=functools.partial(
        hang, fig09._torus))
    return points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", default="supervision-smoke",
                        help="where markers, journal, and reports land")
    parser.add_argument("--point-timeout", type=float, default=15.0)
    args = parser.parse_args(argv)

    os.makedirs(args.work_dir, exist_ok=True)
    marker = os.path.join(args.work_dir, "crash-armed")
    journal = os.path.join(args.work_dir, "journal.jsonl")
    report_path = os.path.join(args.work_dir, "quarantine-report.json")

    clean = fig09.run(SIZES, CollectiveOp.ALL_REDUCE)

    policy = SupervisionPolicy(point_timeout_s=args.point_timeout,
                               max_retries=1)
    with ParallelExecutor(jobs=2, policy=policy,
                          journal_path=journal) as ex:
        outcomes = ex.run_outcomes(_faulty_points(marker))
        write_quarantine_report(report_path, policy, ex.quarantine)
        summary = quarantine_summary(ex.quarantine)

    statuses = [o.status for o in outcomes]
    print(f"statuses: {[s.value for s in statuses]}")
    assert statuses[0] is PointStatus.RETRIED, statuses
    assert statuses[2] is PointStatus.TIMEOUT, statuses
    assert statuses[1] is PointStatus.OK and statuses[3] is PointStatus.OK

    # The retried point must be bit-identical to the clean run; the
    # hung point is an explicit gap in the partial figure.
    results = results_with_gaps(outcomes)
    figure = Sweep(CollectiveOp.ALL_REDUCE, SIZES,
                   {"alltoall": results[:len(SIZES)],
                    "torus": results[len(SIZES):]})
    assert not figure.complete
    reference_results = [r for series in clean.series.values() for r in series]
    for reference, outcome in zip(reference_results, outcomes):
        if outcome.ok:
            assert (reference.duration_cycles
                    == outcome.result.duration_cycles), (
                "retried point diverged from the clean run")
    print("partial figure rows (None = quarantined gap):")
    for row in figure.rows():
        print(f"  {row}")
    print(summary)

    # Resume: the journal must carry the campaign past completed AND
    # quarantined points without re-simulating either.
    with ParallelExecutor(jobs=2, policy=policy,
                          journal_path=journal) as resumed_ex:
        resumed = resumed_ex.run_outcomes(_faulty_points(marker))
        assert resumed_ex.simulations_run == 0, "resume re-simulated"
    assert all(o.from_journal for o in resumed)
    assert resumed[2].status is PointStatus.QUARANTINED
    print("resume: 0 simulations, quarantined point skipped")

    code = exit_code_for(outcomes)
    print(f"exit code: {code} (1 = partial results, as injected)")
    return code


if __name__ == "__main__":
    sys.exit(main())
