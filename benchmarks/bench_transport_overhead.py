"""Ablation — reliable-transport overhead on a healthy network.

The transport's contract is that wrapping a backend changes *nothing*
on a healthy run: the default timeouts are generous enough that no
delivery timer fires before its message arrives, so the simulated
cycle count must match the bare backend exactly, and the only cost is
the wall-clock bookkeeping of arming/cancelling one timer per message.
This bench times the same all-reduce with the transport off and on,
checks cycle-identity and a silent stats record, and reports the
wall-clock ratio.

The transport arms a timer per message, so it forces the full run, while
the bare run is a quotient run that simulates NPU 0 for all 32 NPUs
(docs/PERFORMANCE.md).  The raw wall ratio therefore mostly measures the
quotient run's saving; the bound is on wall time per logical event
(``events_simulated``), which for two full runs is the same check as the
wall ratio.
"""

import time
from dataclasses import replace

from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape, TransportConfig
from repro.config.units import MB
from repro.harness.runners import run_collective, torus_platform

from bench_common import print_table, run_once


def time_run(transport: bool):
    spec = torus_platform(TorusShape(2, 4, 4))
    if transport:
        spec.config = replace(
            spec.config,
            system=replace(spec.config.system, transport=TransportConfig()))
    start = time.perf_counter()
    result = run_collective(spec, CollectiveOp.ALL_REDUCE, 4 * MB)
    elapsed = time.perf_counter() - start
    return result, elapsed


def _row(result, wall: float) -> dict:
    events = result.system.events.events_simulated
    return {"sim cycles": result.duration_cycles, "wall ms": wall * 1e3,
            "events": events, "us/event": wall / events * 1e6}


def run_sweep():
    bare, wall_off = time_run(transport=False)
    wrapped, wall_on = time_run(transport=True)
    off, on = _row(bare, wall_off), _row(wrapped, wall_on)
    return [{"transport": "off", **off}, {
        "transport": "on", **on,
        "messages": wrapped.transport_stats.messages,
        "retries": wrapped.transport_stats.retries,
        "wall x": wall_on / wall_off if wall_off else float("nan"),
        "overhead x": on["us/event"] / off["us/event"],
    }]


def test_transport_overhead(benchmark):
    rows = run_once(benchmark, run_sweep)
    print_table("Ablation: reliable-transport overhead (no faults)", rows,
                keys=list(rows[1]))

    assert rows[0]["sim cycles"] == rows[1]["sim cycles"], (
        "on a healthy network the transport must not move a single cycle")
    assert rows[1]["retries"] == 0, (
        "no delivery timer may fire before its message on a healthy run")
    assert rows[1]["messages"] > 0
    # Wall-clock bound is deliberately loose (shared CI machines): the
    # wrapper adds one timer arm/cancel per message, nothing per flit.
    # Per logical event, because the transport's run is the full run.
    assert rows[1]["us/event"] < rows[0]["us/event"] * 5.0, (
        "transport overhead should be a small constant factor")
