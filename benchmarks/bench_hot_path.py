"""Hot-path macro-benchmark: the canonical throughput figures.

Seven benchmarks — three representative simulations (a fast-backend
all-reduce, a fast-backend all-to-all over a switch fabric, a detailed
flit-level all-reduce), one larger fast-backend all-reduce (256 NPUs), a
fast-backend all-to-all over 2 switches shared by 3 peers (2x4, 4 MB),
whose messages/sec falls several-fold if switch fabrics lose the
quotient run, a detailed all-reduce of small messages (1x8x8, 64 KB:
28,672 four-flit messages), and a pure
:class:`~repro.events.engine.EventQueue` schedule/cancel microbench.  Together they exercise every hot path the perf work
touches: the event-queue run loop, bucketed scheduling and lazy
cancellation, ``FastBackend.send`` + ``Link.reserve`` + delivery, the
channel route caches, and the detailed backend's
``TxPort`` arbitration with flit bursts.

Each benchmark runs once as warm-up and then ``REPEATS`` times; the
reported profile is the run with the *median* simulate-phase wall time,
so one scheduler hiccup cannot fail the CI gate or pollute a committed
baseline.

The collective benchmarks are gated on *modeled messages per
simulate-second*: every NPU's messages (the phase stats' counts) over
the simulate phase's wall time, the inverse of wall time per simulated
message.  A quotient run (docs/PERFORMANCE.md) simulates one NPU for all
of them, so it makes far fewer events per modeled message and its
events/sec says little about what a user waits for.  Events/sec, which
counts *logical* events (``EventQueue.events_simulated``: executed events
plus the singleton events that batched handlers folded away), is still
printed for every benchmark and stays the gate of the event-queue
microbench.  See docs/PERFORMANCE.md.

Usage::

    python benchmarks/bench_hot_path.py --out BENCH_PR<k>.json
    python benchmarks/bench_hot_path.py --check            # newest BENCH_PR<k>.json
    python benchmarks/bench_hot_path.py --check BENCH_PR5.json

``--out`` records the perf trajectory (committed at the repo root);
``--check`` re-runs the benchmarks and exits nonzero when any one's gated
figure (messages/sec where the baseline records it, else events/sec)
regressed more than ``--max-regression`` (default 20%) below the
committed baseline — the CI perf-smoke gate (docs/PERFORMANCE.md).
With no argument, ``--check`` gates against the newest committed
``BENCH_PR<k>.json`` (highest PR number).

Also runs under pytest-benchmark with the rest of ``benchmarks/``; the
pytest path additionally asserts the sanitizer cycle-identity contract
on the fast-backend run.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

from repro.collectives.types import CollectiveOp
from repro.config.parameters import AllToAllShape, TorusShape
from repro.config.units import KB, MB
from repro.events.engine import EventQueue
from repro.harness.runners import alltoall_platform, run_collective, torus_platform
from repro.profiling.profiler import (
    RunProfile,
    compare_bench,
    find_newest_bench,
    read_bench,
    write_bench,
)

#: Livelock guard only; these runs finish well below it.
MAX_EVENTS = 50_000_000

#: Timed repetitions per benchmark (after one untimed warm-up); the
#: median simulate-phase run is reported.
REPEATS = 5

#: Repo root: committed BENCH_PR<k>.json baselines live here.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _detailed_factory(events, network, sanitizer):
    from repro.network.detailed.backend import DetailedBackend

    return DetailedBackend(events, network, sanitizer=sanitizer)


def _profile_collective(name: str, make_spec, op: CollectiveOp,
                        size_bytes: float) -> tuple[RunProfile, float]:
    """Build and run one collective under phase timing."""
    profile = RunProfile(name=name)
    with profile.phase("build"):
        system = make_spec().build_system()
    with profile.phase("simulate"):
        collective = system.request_collective(op, size_bytes, name=op.value)
        system.run_until_idle(max_events=MAX_EVENTS)
    profile.record_system(system)
    assert collective.done, f"{name}: collective never completed"
    return profile, collective.duration_cycles


# -- EventQueue microbench ----------------------------------------------------------

#: Outstanding-event population of the microbench: a heap deep enough
#: that push/pop cost, lazy cancellation and compaction all show.
_CHURN_POPULATION = 4096
_CHURN_TOTAL = 200_000


def _profile_eventqueue(name: str = "eventqueue_churn_200k") -> tuple[RunProfile, float]:
    """Pure engine throughput: schedule/cancel/run with a held population.

    Every fired event schedules one replacement at a deterministic
    pseudo-random delay (integer hash, no RNG state); every 5th
    replacement is immediately cancelled and re-issued, so the run also
    measures lazy-cancellation drain and compaction.
    """
    profile = RunProfile(name=name)
    with profile.phase("build"):
        queue = EventQueue()
    with profile.phase("simulate"):
        state = {"scheduled": 0}

        def _delay(i: int) -> float:
            return float((i * 2654435761 >> 7) % 1000 + 1)

        def reschedule() -> None:
            i = state["scheduled"]
            if i >= _CHURN_TOTAL:
                return
            state["scheduled"] = i + 1
            handle = queue.schedule(_delay(i), reschedule)
            if i % 5 == 0:
                # Churn: cancel-and-replace, leaving a lazily-cancelled
                # entry behind for the drain/compaction machinery.
                handle.cancel()
                reschedule()

        for i in range(_CHURN_POPULATION):
            state["scheduled"] += 1
            queue.schedule(_delay(i), reschedule)
        queue.run()
    profile.events = queue.events_simulated
    profile.cycles = queue.now
    return profile, queue.now


def _median_run(runner) -> tuple[RunProfile, float]:
    """One warm-up + ``REPEATS`` timed runs; report the median-time run."""
    runner()  # warm-up: imports, allocator, branch predictors
    runs = [runner() for _ in range(REPEATS)]
    times = [profile.seconds_of("simulate") or profile.total_seconds
             for profile, _ in runs]
    median = statistics.median(times)
    for (profile, cycles), seconds in zip(runs, times):
        if seconds == median:
            return profile, cycles
    return runs[0]  # pragma: no cover - median always present for odd REPEATS


def run_benchmarks() -> tuple[list[RunProfile], dict[str, float]]:
    """The canonical macro-benchmarks; returns profiles + sim cycles."""
    cases = [
        ("fast_allreduce_2x4x4_4mb",
         lambda: torus_platform(TorusShape(2, 4, 4)),
         CollectiveOp.ALL_REDUCE, 4 * MB),
        ("fast_allreduce_4x8x8_1mb",
         lambda: torus_platform(TorusShape(4, 8, 8)),
         CollectiveOp.ALL_REDUCE, 1 * MB),
        ("fast_alltoall_4x8_1mb",
         lambda: alltoall_platform(AllToAllShape(local=4, packages=8)),
         CollectiveOp.ALL_TO_ALL, 1 * MB),
        ("fast_alltoall_2x4_s2_4mb",
         lambda: alltoall_platform(AllToAllShape(local=2, packages=4),
                                   global_switches=2),
         CollectiveOp.ALL_TO_ALL, 4 * MB),
    ]

    def _detailed_spec(shape: TorusShape, **kwargs):
        spec = torus_platform(shape, **kwargs)
        spec.backend_factory = _detailed_factory
        return spec

    cases.append(("detailed_allreduce_2x2x2_64kb",
                  lambda: _detailed_spec(TorusShape(2, 2, 2), preferred_set_splits=4),
                  CollectiveOp.ALL_REDUCE, 64 * KB))
    # Small messages: every one is its own four-flit burst at an idle port,
    # so this gates the detailed backend's fixed cost per message.
    cases.append(("detailed_allreduce_1x8x8_64kb",
                  lambda: _detailed_spec(TorusShape(1, 8, 8)),
                  CollectiveOp.ALL_REDUCE, 64 * KB))

    profiles: list[RunProfile] = []
    cycles: dict[str, float] = {}
    for name, make_spec, op, size in cases:
        profile, sim_cycles = _median_run(
            lambda name=name, make_spec=make_spec, op=op, size=size:
            _profile_collective(name, make_spec, op, size))
        profiles.append(profile)
        cycles[name] = sim_cycles

    profile, sim_cycles = _median_run(_profile_eventqueue)
    profiles.append(profile)
    cycles[profile.name] = sim_cycles
    return profiles, cycles


def assert_sanitizer_cycle_identity() -> None:
    """The hot-path rewrites must be invisible to simulated time: the
    same run under the runtime sanitizer lands on identical cycles."""
    plain = run_collective(torus_platform(TorusShape(2, 4, 4)),
                           CollectiveOp.ALL_REDUCE, 1 * MB)
    checked = run_collective(torus_platform(TorusShape(2, 4, 4)),
                             CollectiveOp.ALL_REDUCE, 1 * MB, sanitize=True)
    assert plain.duration_cycles == checked.duration_cycles, (
        f"sanitized run diverged: {plain.duration_cycles} vs "
        f"{checked.duration_cycles}")


# -- pytest-benchmark entry ---------------------------------------------------------


def test_hot_path_bench(benchmark):
    from bench_common import print_table, run_once

    profiles, _cycles = run_once(benchmark, run_benchmarks)
    rows = [{
        "bench": p.name,
        "wall s": p.total_seconds,
        "messages/sec": p.messages_per_sec,
        "events": p.events,
        "events/sec": p.events_per_sec,
    } for p in profiles]
    print_table("Hot path: modeled messages/sec and events/sec", rows)
    assert_sanitizer_cycle_identity()
    assert all(p.events_per_sec > 0 for p in profiles)


# -- script entry -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the bench document to PATH")
    parser.add_argument("--check", nargs="?", default=None, const="auto",
                        metavar="BASELINE",
                        help="compare a fresh run against BASELINE (default: "
                             "the newest committed BENCH_PR<k>.json); exit 1 "
                             "on any messages/sec (collectives) or events/sec "
                             "(event-queue microbench) regression beyond "
                             "--max-regression")
    parser.add_argument("--max-regression", type=float, default=0.20)
    parser.add_argument("--label", default="hot-path")
    args = parser.parse_args(argv)

    profiles, cycles = run_benchmarks()
    for profile in profiles:
        print(profile.format())
        print(f"  sim cycles   {cycles[profile.name]:>14,.0f}")

    rc = 0
    if args.check:
        baseline_path = (find_newest_bench(REPO_ROOT) if args.check == "auto"
                         else args.check)
        baseline = read_bench(baseline_path)
        doc = {"benchmarks": [p.as_dict() for p in profiles]}
        regressions = compare_bench(baseline, doc,
                                    max_regression=args.max_regression)
        for message in regressions:
            print(f"REGRESSION: {message}", file=sys.stderr)
        if regressions:
            rc = 1
        else:
            print(f"perf gate OK: within {args.max_regression:.0%} of "
                  f"{baseline_path}")
    if args.out:
        path = write_bench(args.out, [p.as_dict() for p in profiles],
                           label=args.label)
        print(f"bench written to {path}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
