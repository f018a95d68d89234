"""End-to-end and per-layer benchmark of the simulator (see README.md).

Usage::

    python benchmarks/e2e/run.py [--workload W]... [--seed S] [--seconds N]
                                 [--trace [0|1]] [--smoke] [--out F] [--pins F]

Run from the repository root.  Without ``--workload`` every workload
runs.  Each workload prints its metrics, one per line with the unit,
the sample count and the quartiles; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Untraced runs report the end-to-end metrics of BENCHMARK.json; ``--trace``
runs an untraced reference and a cProfile-traced operation and reports
the per-layer metrics instead.  With several workloads, metric names in
the JSON line are prefixed with ``<workload>.``.

``--out F`` appends the full record (every sample summary, the check
failures, and with ``--trace`` the end-to-end numbers of the reference
too) to the JSON-lines file F; ``compare.py`` reads such files.
Exit status: 0 when every check passed, 1 when any failed, 2 on a usage
error or a checkout without the simulator's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from workloads import ROOT, SETUP_SAMPLES, SRC, WORKLOADS, Run  # noqa: E402

BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
PINS_FILE = os.path.join(HERE, "pins.json")
WORK_ROOT = os.path.join(ROOT, ".e2e_work")

#: Profiled call counts: metric key -> (file suffix, function).
CALLS = {
    "sends": ("repro/network/fast_backend.py", "FastBackend.send"),
    "reserves": ("repro/network/link.py", "Link.reserve"),
    "messages": ("repro/collectives/context.py", "CollectiveContext.send"),
    "records": ("repro/collectives/context.py", "PhaseStats.record"),
    "calendar": ("repro/events/engine.py", "EventQueue._enable_calendar"),
}


def summarize(values: list[float], slowdowns: Optional[list[float]] = None) -> dict:
    """Median, quartiles and sample count of one metric's samples.

    Host times come with the probe's slowdown per sample; of those only
    the half of the samples taken while the vCPU was least slowed count.
    Correcting by the probe removes most of a slowdown but not all of it
    (a CLI invocation slows about 1.1-1.3 times as much as the probe
    loop), so the least-corrected samples are the most faithful.
    """
    chosen = values
    if slowdowns:
        keep = sorted(range(len(values)), key=slowdowns.__getitem__)[:(len(values) + 1) // 2]
        chosen = [values[i] for i in sorted(keep)]
    if len(chosen) > 1:
        q1, _, q3 = statistics.quantiles(chosen, n=4)
    else:
        q1 = q3 = chosen[0]
    return {"value": statistics.median(chosen), "samples": len(chosen), "of": len(values),
            "q1": q1, "q3": q3, "values": values, "slowdowns": slowdowns}


def measure(workload, run: Run, seconds: float, min_ops: int, setup_samples: int) -> None:
    """Untraced run: at least ``min_ops`` operations, more while time is
    left, then set-up-only children until ``setup_samples`` exist."""
    start = time.perf_counter()
    done = 0
    while done < min_ops or time.perf_counter() - start < seconds:
        workload.op(run)
        done += 1
    while len(run.samples["setup_s"]) < setup_samples:
        workload.setup_sample(run)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, profile_path: str, layer_map: layers.LayerMap) -> dict:
    """The per-layer metrics of one traced run."""
    import pstats

    stats = pstats.Stats(profile_path).stats
    seconds = layers.attribute(stats, layer_map)
    total = sum(seconds.values())
    m: dict[str, float] = {}
    for layer in layers.LAYERS:
        m[f"{layer}.self_s"] = seconds[layer]
        m[f"{layer}.share"] = _ratio(seconds[layer], total)
    calls = layers.call_counts(stats, CALLS)
    c = {"dispatches": 0, "logical": 0, "compactions": 0, "fast_forwards": 0, "flits": 0,
         "samples_retained": 0, **trace["counters"]}
    m["events.dispatches"] = c["dispatches"]
    m["events.logical"] = c["logical"]
    m["events.batched_frac"] = _ratio(c["logical"] - c["dispatches"], c["logical"])
    m["events.compactions"] = c["compactions"]
    m["events.fast_forwards"] = c["fast_forwards"]
    m["events.calendar_used"] = calls["calendar"]
    m["network.fast.sends"] = calls["sends"]
    m["network.fast.link_reserves"] = calls["reserves"]
    m["network.fast.us_per_send"] = _ratio(seconds["network.fast"] * 1e6, calls["sends"])
    m["network.detailed.flits"] = c["flits"]
    m["network.detailed.us_per_flit"] = _ratio(seconds["network.detailed"] * 1e6, c["flits"])
    m["collectives.messages"] = calls["messages"]
    m["collectives.us_per_msg"] = _ratio(seconds["collectives"] * 1e6, calls["messages"])
    m["stats.records"] = calls["records"]
    m["stats.records_per_msg"] = _ratio(calls["records"], calls["messages"])
    m["stats.samples_retained"] = c["samples_retained"]

    outputs = trace["outputs"]
    ready = outputs.get("ready", {})
    hits = outputs.get("cache_hits", ready.get("cache", {}).get("hits", 0))
    misses = outputs.get("cache_misses", ready.get("cache", {}).get("misses", 0))
    m["parallel.cache.hits"] = hits
    m["parallel.cache.misses"] = misses
    m["parallel.cache.hit_rate"] = _ratio(hits, hits + misses)
    m["parallel.replay_s"] = outputs.get("replay_s", 0.0)
    m["search.simulations_run"] = outputs.get("simulations", ready.get("simulations_run", 0))
    service = outputs.get("service", {})
    for key in ("admit_ms", "queue_wait_ms", "exec_ms", "notify_ms", "from_cache_frac",
                "latency_p50_ms", "latency_p90_ms"):
        m[f"service.{key}"] = service.get(key, 0.0)

    with open(trace["importtime_path"]) as f:
        imports = layers.import_times(f)
    m["cli.import_s"] = imports["package_s"]
    m["import.networkx_s"] = imports["networkx_s"]
    m["import.numpy_s"] = imports["numpy_s"]
    m["trace.overhead"] = trace["overhead"]
    return m


def run_workload(name: str, args, pins: dict, specs: dict, work_dir: str) -> dict:
    """One workload's record: metric summaries, counts and problems."""
    started = time.perf_counter()
    record = {"workload": name, "seed": args.seed, "scale": args.scale,
              "trace": bool(args.trace), "metrics": {}, "per_layer": {}}
    run = Run()
    try:
        with SpeedProbe() as probe:
            workload = WORKLOADS[name](args.scale, args.seed, pins, work_dir, probe)
            run_measured(workload, run, args, record, work_dir)
    except Exception:  # a crashed child or daemon: report it, never hang
        run.attempted += 1
        run.failed += 1
        run.problems.append(traceback.format_exc())
    record["metrics"] = {metric: summarize(values, run.slowdowns.get(metric))
                         for metric, values in run.samples.items() if values}
    record.update(attempted=run.attempted, failed=run.failed, problems=run.problems,
                  error_rate=_ratio(run.failed, run.attempted),
                  wall_s=time.perf_counter() - started)
    wanted = specs["per_layer"] if args.trace else specs["end_to_end"]
    record["correct"] = run.failed == 0 and all(
        metric in (record["per_layer"] if args.trace else record["metrics"])
        for metric in wanted)
    return record


def run_measured(workload, run: Run, args, record: dict, work_dir: str) -> None:
    """The traced or untraced procedure for one workload."""
    if args.trace:
        profile_path = os.path.join(work_dir, f"{workload.name}.pstats")
        trace = workload.trace(run, profile_path)
        layer_map = layers.LayerMap(os.path.join(SRC, "repro"))
        record["per_layer"] = layer_metrics(trace, profile_path, layer_map)
        if layer_map.unmapped:
            print(f"warning: modules with no layer, charged to other: "
                  f"{sorted(layer_map.unmapped)}", file=sys.stderr)
    else:
        smoke = args.scale == "smoke"
        measure(workload, run, 0.0 if smoke else args.seconds,
                1 if smoke else workload.min_ops, 1 if smoke else SETUP_SAMPLES)


def report(record: dict, specs: dict) -> None:
    name = record["workload"]
    for metric, summary in record["metrics"].items():
        unit = specs["end_to_end"].get(metric, specs["extra"].get(metric, ""))
        of = summary["of"]
        chosen = f"{summary['samples']} least slowed of {of}" if summary["samples"] < of else of
        print(f"{name:<20} {metric:<18} {summary['value']:>14.6g} {unit:<6} "
              f"(median of {chosen}; q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g})")
    for metric, value in record["per_layer"].items():
        print(f"{name:<20} {metric:<30} {value:>14.6g} {specs['per_layer'].get(metric, '')}")
    print(f"{name:<20} {'error_rate':<18} {record['error_rate']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed; "
          f"{record['wall_s']:.1f} s)")
    for problem in record["problems"]:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)


def load_specs() -> dict:
    with open(BENCHMARK_FILE) as f:
        bench = json.load(f)
    return {
        "run_seconds": bench["run_seconds"],
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
        # Reported alongside the end-to-end metrics, not bounded.
        "extra": {"replay_s": "s", "wall_run_s": "s", "wall_setup_s": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure at least this long per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report the per-layer metrics of a traced run")
    parser.add_argument("--smoke", dest="scale", action="store_const", const="smoke",
                        default="full", help="small inputs, one operation per workload")
    parser.add_argument("--out", help="append the full JSON record to this file")
    parser.add_argument("--pins", default=PINS_FILE, help="expected outputs (pins.json)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(BENCHMARK_FILE):
        print(f"error: {ROOT} is not a checkout of the simulator "
              f"(src/repro or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    specs = load_specs()
    if args.seconds is None:
        args.seconds = specs["run_seconds"]
    with open(args.pins) as f:
        pins = json.load(f)

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        records = [run_workload(name, args, pins, specs, work_dir)
                   for name in args.workload or WORKLOADS]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for record in records:
        report(record, specs)
    if args.out:
        with open(args.out, "a") as f:
            for record in records:
                f.write(json.dumps(record, sort_keys=True) + "\n")

    units = specs["per_layer"] if args.trace else specs["end_to_end"]
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        values = record["per_layer"] if args.trace else {
            m: s["value"] for m, s in record["metrics"].items()}
        for metric, unit in units.items():
            if metric in values:
                metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    correct = all(record["correct"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
