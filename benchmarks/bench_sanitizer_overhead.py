"""Ablation — runtime sanitizer overhead on a representative collective.

The sanitizer's contract is zero overhead when disabled (no checker
objects exist; instrumentation is a single ``is not None`` test) and a
small, bounded cost when enabled.  This bench times the same all-reduce
with the sanitizer off and on, checks the results agree exactly, and
reports the wall-clock ratio.

The sanitizer checks every message, so it forces the full run, while the
run without it is a quotient run that simulates NPU 0 for all 32 NPUs
(docs/PERFORMANCE.md).  The raw wall ratio therefore mostly measures the
quotient run's saving; the bound is on wall time per logical event
(``events_simulated``), which for two full runs is the same check as the
wall ratio.
"""

import time

from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape
from repro.config.units import MB
from repro.harness.runners import run_collective, torus_platform

from bench_common import print_table, run_once


def time_run(sanitize: bool):
    start = time.perf_counter()
    result = run_collective(torus_platform(TorusShape(2, 4, 4)),
                            CollectiveOp.ALL_REDUCE, 4 * MB,
                            sanitize=sanitize)
    elapsed = time.perf_counter() - start
    return result, elapsed


def _row(result, wall: float) -> dict:
    events = result.system.events.events_simulated
    return {"sim cycles": result.duration_cycles, "wall ms": wall * 1e3,
            "events": events, "us/event": wall / events * 1e6}


def run_sweep():
    off = _row(*time_run(sanitize=False))
    on = _row(*time_run(sanitize=True))
    return [{"sanitize": "off", **off}, {
        "sanitize": "on", **on,
        "wall x": on["wall ms"] / off["wall ms"] if off["wall ms"] else float("nan"),
        "overhead x": on["us/event"] / off["us/event"],
    }]


def test_sanitizer_overhead(benchmark):
    rows = run_once(benchmark, run_sweep)
    print_table("Ablation: runtime sanitizer overhead", rows, keys=list(rows[1]))

    assert rows[0]["sim cycles"] == rows[1]["sim cycles"], (
        "the sanitizer must observe, never perturb, simulated time")
    # Wall-clock bound is deliberately loose (shared CI machines): the
    # checkers are O(1) per event/flit, so anything near parity passes.
    # Per logical event, because the sanitized run is the full run.
    assert rows[1]["us/event"] < rows[0]["us/event"] * 5.0, (
        "sanitizer overhead should be a small constant factor")
