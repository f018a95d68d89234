"""Ablation — stall-watchdog and supervision overhead, no faults.

Two contracts, both "observation is free in simulated time":

* The watchdog (docs/RESILIENCE.md) is the event queue's ``watcher``,
  which fires after each executed event and never schedules anything —
  so a no-fault run with the watchdog attached must land on the exact
  same cycle as a bare run.  Timed bare and with the watchdog.
* Supervision (docs/SUPERVISION.md): deadlines, retry budgets, and
  quarantine live entirely in the parent's task loop — a no-fault
  supervised batch (its points run in a worker slot) must produce
  bit-identical cycles to an unsupervised one (its points run in the
  parent), paying only wall-clock dispatch overhead (reported as a
  ratio, bounded loosely for shared CI machines).
"""

import time
from dataclasses import replace

from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape, TransportConfig
from repro.config.units import MB
from repro.harness.runners import run_collective, torus_platform
from repro.parallel.executor import ParallelExecutor, RunPoint
from repro.parallel.supervisor import SupervisionPolicy
from repro.resilience.watchdog import WatchdogConfig

from bench_common import print_table, run_once


def time_run(mode: str):
    spec = torus_platform(TorusShape(2, 4, 4))
    spec.config = replace(
        spec.config,
        system=replace(spec.config.system, transport=TransportConfig()))
    if mode == "watchdog":
        spec.watchdog = WatchdogConfig(stall_cycles=10_000_000.0,
                                       check_every_events=256)
    start = time.perf_counter()
    result = run_collective(spec, CollectiveOp.ALL_REDUCE, 4 * MB)
    elapsed = time.perf_counter() - start
    return result, elapsed


def run_sweep():
    rows = []
    baseline = None
    for mode in ("off", "watchdog"):
        result, wall = time_run(mode)
        row = {
            "watchdog": mode,
            "sim cycles": result.duration_cycles,
            "wall s": wall,
        }
        if baseline is None:
            baseline = wall
        else:
            row["overhead x"] = wall / baseline if baseline else float("nan")
        rows.append(row)
    return rows


def test_resilience_overhead(benchmark):
    rows = run_once(benchmark, run_sweep)
    print_table("Ablation: stall-watchdog overhead (no faults)", rows)

    cycles = {row["sim cycles"] for row in rows}
    assert len(cycles) == 1, (
        "the watchdog only observes; enabling it must not move a single "
        f"simulated cycle (saw {sorted(cycles)})")
    # The wall-clock bound is deliberately loose (shared CI machines): the
    # watcher adds one call per event.
    assert rows[1]["wall s"] < rows[0]["wall s"] * 5.0


# -- supervised execution overhead -------------------------------------------------


def _bench_platform():
    return torus_platform(TorusShape(2, 4, 4))


def _bench_points():
    return [RunPoint(builder=_bench_platform, op=CollectiveOp.ALL_REDUCE,
                     size_bytes=float(size))
            for size in (MB, 2 * MB, 4 * MB)]


def supervised_vs_plain():
    rows = []
    start = time.perf_counter()
    with ParallelExecutor(jobs=1) as plain_ex:
        plain = plain_ex.run_points(_bench_points())
    plain_wall = time.perf_counter() - start

    policy = SupervisionPolicy(point_timeout_s=600.0, max_retries=2)
    start = time.perf_counter()
    with ParallelExecutor(jobs=1, policy=policy) as sup_ex:
        outcomes = sup_ex.run_outcomes(_bench_points())
    supervised_wall = time.perf_counter() - start

    rows.append({"executor": "plain", "wall s": plain_wall,
                 "sim cycles": sum(r.duration_cycles for r in plain)})
    rows.append({"executor": "supervised", "wall s": supervised_wall,
                 "sim cycles": sum(o.result.duration_cycles for o in outcomes),
                 "overhead x": (supervised_wall / plain_wall
                                if plain_wall else float("nan"))})
    return plain, outcomes, rows


def test_supervision_overhead(benchmark):
    plain, outcomes, rows = run_once(benchmark, supervised_vs_plain)
    print_table("Ablation: supervised execution overhead (no faults)", rows)

    # Cycle identity: supervision must not perturb a healthy simulation.
    assert all(o.ok and o.attempts == 1 for o in outcomes)
    for reference, outcome in zip(plain, outcomes):
        assert reference.duration_cycles == outcome.result.duration_cycles, (
            "a supervised no-fault run must land on the exact cycle of "
            "an unsupervised run")
        assert (reference.breakdown.as_dict()
                == outcome.result.breakdown.as_dict())
    # Dispatch overhead only; generous bound for loaded CI boxes.
    assert rows[1]["wall s"] < rows[0]["wall s"] * 5.0
