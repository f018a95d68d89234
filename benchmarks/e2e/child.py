"""One benchmark repetition in a fresh interpreter, spawned by run.py.

Usage::

    python child.py WORKLOAD PARAMS_JSON [--profile OUT]
    python child.py HELPER PARAMS_JSON
    python child.py --cli [--profile OUT] -- ARG...

The first form sets up one in-process workload (imports, platform,
model or search space), prints ``E2E-READY``, runs its timed phases,
and prints ``E2E-RESULT <json>`` with the phase times, the outputs to
check and the public counters of the systems it ran.  With
``PARAMS_JSON`` holding ``"setup_only": true`` it stops after
``E2E-READY``.  A helper prints one ``E2E-RESULT`` line with inputs the
runner needs from the simulator (the search's strategy seed, the
service payloads' bandwidth floors).  The last form runs ``repro.cli``
with ``ARG...`` and exists for ``--profile``: it profiles the CLI
process, every thread it starts included, which ``python -m cProfile``
cannot do.

``--profile OUT`` writes a pstats file covering the whole process,
interpreter imports included.  In-process workloads are profiled in wall
time; the CLI form counts each thread's CPU time.  Forked worker
processes (the service's supervised executor) run unprofiled.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _start_profile(cpu_time: bool) -> list:
    """Profile this thread and every thread started later.  With
    ``cpu_time`` each profile counts its own thread's CPU time, so a
    daemon's threads blocked in waits do not show up as busy."""
    import cProfile
    import threading

    def new_profile():
        return cProfile.Profile(time.thread_time) if cpu_time else cProfile.Profile()

    profiles = [new_profile()]

    def profile_new_thread(_frame, _event, _arg):
        prof = new_profile()
        profiles.append(prof)
        prof.enable()

    def unprofile_forked_child():
        sys.setprofile(None)
        threading.setprofile(None)

    threading.setprofile(profile_new_thread)
    os.register_at_fork(after_in_child=unprofile_forked_child)
    profiles[0].enable()
    return profiles


def _dump_profile(profiles: list, path: str) -> None:
    import pstats
    import threading

    threading.setprofile(None)
    merged = pstats.Stats()
    for prof in profiles:
        prof.create_stats()
        if prof.stats:
            merged.add(prof)
    merged.dump_stats(path)


# -- workloads ----------------------------------------------------------------------


def _train(params: dict):
    from repro.config.parameters import CollectiveAlgorithm, SchedulingPolicy, TorusShape
    from repro.harness.runners import run_training, torus_platform
    from repro.models.resnet50 import resnet50

    platform = torus_platform(
        TorusShape(*params["shape"]),
        algorithm=CollectiveAlgorithm.ENHANCED,
        scheduling_policy=SchedulingPolicy.LIFO,
        horizontal_rings=1,
        vertical_rings=1,
    )
    model = resnet50(compute=platform.config.compute, minibatch=32)
    out: dict = {}

    def step():
        report, system = run_training(model, platform, num_iterations=1)
        out["cycles"] = report.total_cycles
        out["systems"] = [system]

    return [("run_s", step)], lambda: out


def _detailed_backend(events, network, sanitizer):
    from repro.network.detailed.backend import DetailedBackend

    return DetailedBackend(events, network, sanitizer=sanitizer)


def _allreduce_detailed(params: dict):
    from repro.collectives import CollectiveOp
    from repro.config.parameters import TorusShape
    from repro.config.units import KB
    from repro.harness.runners import run_collective, torus_platform

    spec = torus_platform(TorusShape(*params["shape"]),
                          preferred_set_splits=params["splits"])
    spec.backend_factory = _detailed_backend
    out: dict = {}

    def allreduce():
        result = run_collective(spec, CollectiveOp.ALL_REDUCE, params["size_kb"] * KB)
        out["cycles"] = result.duration_cycles
        out["systems"] = [result.system]

    return [("run_s", allreduce)], lambda: out


def _cli_reference(params: dict):
    """The CLI workload's point, run in-process: its message count."""
    from repro.harness.runners import run_collective
    from repro.service.schema import parse_payload

    payload = parse_payload(params["payload"])
    spec = payload.platform_spec()
    out: dict = {}

    def collective():
        result = run_collective(spec, payload.op, payload.size_bytes)
        out["cycles"] = result.duration_cycles
        out["systems"] = [result.system]

    return [("run_s", collective)], lambda: out


def _search(params: dict):
    from repro.parallel import ParallelExecutor, RunCache
    from repro.search import SearchSpace, make_objective, make_strategy, rank_frontier, run_search

    space = SearchSpace.from_file(params["space"])
    objective = make_objective("time", space.cost_table, space.size_bytes)
    systems: list = []

    class SystemCollector(ParallelExecutor):
        """Keeps each simulated system's counters reachable (traced runs)."""

        def run_outcomes(self, points):
            outcomes = super().run_outcomes(points)
            systems.extend(o.result.system for o in outcomes
                           if o.ok and o.result.system is not None)
            return outcomes

    def search(executor):
        strategy = make_strategy("random", space, params["seed"],
                                 generation_size=params["generation_size"])
        trajectory = run_search(space, objective, strategy, budget=params["budget"],
                                executor=executor)
        return trajectory, executor

    out: dict = {}

    def cold():
        cls = SystemCollector if params.get("collect_systems") else ParallelExecutor
        out["cold"] = search(cls(jobs=1, cache=RunCache(params["cache_dir"])))

    def warm():
        out["warm"] = search(ParallelExecutor(jobs=1, cache=RunCache(params["cache_dir"])))

    def finish():
        trajectory, cold_executor = out["cold"]
        replay, warm_executor = out["warm"]
        frontier = rank_frontier(trajectory)
        messages = 0
        for name in sorted(os.listdir(params["cache_dir"])):
            if name.endswith(".json"):
                with open(os.path.join(params["cache_dir"], name)) as f:
                    entry = json.load(f)
                messages += sum(p["messages"] for p in
                                entry["breakdown"]["phase_stats"].values())
        return {
            "points": len(trajectory),
            "simulations": cold_executor.simulations_run,
            "replay_simulations": warm_executor.simulations_run,
            "cache_hits": cold_executor.cache.stats.hits + warm_executor.cache.stats.hits,
            "cache_misses": cold_executor.cache.stats.misses + warm_executor.cache.stats.misses,
            "replay_identical": ([(e.label, e.duration_cycles) for e in replay]
                                 == [(e.label, e.duration_cycles) for e in trajectory]),
            "below_floor": sum(1 for e in trajectory if e.floor_ratio < 1.0),
            "best_label": frontier[0].label,
            "best_cycles": frontier[0].duration_cycles,
            "messages": messages,
            "systems": systems,
        }

    return [("run_s", cold), ("replay_s", warm)], finish


def search_inputs(params: dict) -> dict:
    """The search workload's strategy seed for the benchmark seed.

    The random strategy visits every feasible point of the space in a
    seed-dependent order.  The strategy seed is the first of ``seed``,
    ``seed + 1000003``, ... whose first generation already holds every
    point, so the work (one generation of proposals, every point
    simulated once) is the same for every seed and only the order moves.
    """
    from repro.search import SearchSpace, make_strategy

    space = SearchSpace.from_file(params["space"])
    points = len(space.enumerate_genomes())
    seed = params["seed"]
    while len(set(make_strategy("random", space, seed,
                                generation_size=params["generation_size"]).ask())) < points:
        seed += 1000003
    return {**params, "budget": points, "seed": seed}


def floors(params: dict) -> dict:
    """Bandwidth floor (cycles) of each service payload, keyed by its JSON."""
    from collections import defaultdict

    from repro.analytical.cost_models import bandwidth_lower_bound_cycles
    from repro.service.schema import parse_payload

    egress_of: dict = {}
    out = {}
    for payload in params["payloads"]:
        parsed = parse_payload(payload, lint=False)
        key = (payload["topology"], tuple(payload["shape"]))
        if key not in egress_of:
            spec = parsed.platform_spec()
            fabric = spec.topology_builder(spec.config.system).fabric
            egress: dict = defaultdict(float)
            for link in fabric.links:
                egress[link.src] += link.config.effective_bytes_per_cycle(link.clock)
            # The busiest NPU's egress gives the smallest per-node time,
            # so this stays a valid floor for every node.
            egress_of[key] = (fabric.num_npus, max(egress[n] for n in range(fabric.num_npus)))
        n, bytes_per_cycle = egress_of[key]
        out[json.dumps(payload, sort_keys=True)] = bandwidth_lower_bound_cycles(
            payload["op"], parsed.size_bytes, n, bytes_per_cycle)
    return out


#: Input helpers for the runner, which never imports the simulator.
HELPERS = {"search_inputs": search_inputs, "floors": floors}

WORKLOADS = {
    "train_resnet50": _train,
    "allreduce_detailed": _allreduce_detailed,
    "cli_reference": _cli_reference,
    "search_fig09": _search,
}


def _system_counters(systems: list) -> dict:
    """Public counters of the simulated systems, summed."""
    c = {"messages": 0, "dispatches": 0, "logical": 0, "compactions": 0,
         "fast_forwards": 0, "flits": 0, "samples_retained": 0}
    for system in systems:
        events = system.events
        breakdown = system.breakdown
        c["messages"] += sum(s.messages for s in breakdown.phase_stats.values())
        c["dispatches"] += events.events_processed
        c["logical"] += events.events_simulated
        c["compactions"] += events.compactions
        c["fast_forwards"] += events.fast_forwards
        c["flits"] += getattr(system.backend, "total_flits_sent", 0)
        c["samples_retained"] += len(breakdown.ready_queue_delays) + sum(
            len(s.queue_values) + len(s.network_values) + len(s.byte_values)
            for s in breakdown.phase_stats.values())
    return c


def _run_workload(name: str, params: dict) -> int:
    phases, finish = WORKLOADS[name](params)
    print("E2E-READY", flush=True)
    if params.get("setup_only"):
        return 0
    times = {}
    for phase, fn in phases:
        print(f"E2E-PHASE {phase}", flush=True)
        start = time.perf_counter()
        fn()
        times[phase] = time.perf_counter() - start
    outputs = dict(finish())
    counters = _system_counters(outputs.pop("systems", []))
    print("E2E-RESULT " + json.dumps({"times": times, "outputs": outputs,
                                      "counters": counters}), flush=True)
    return 0


def main(argv: list[str]) -> int:
    cli_args = None
    if "--" in argv:
        cli_args = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    profile_out = None
    if "--profile" in argv:
        i = argv.index("--profile")
        profile_out = argv[i + 1]
        del argv[i:i + 2]
    cli = argv[:1] == ["--cli"]
    profiles = _start_profile(cpu_time=cli) if profile_out else None
    try:
        if cli:
            sys.stdout.reconfigure(line_buffering=True)
            from repro.cli import main as cli_main

            return cli_main(cli_args)
        if argv[0] in HELPERS:
            answer = HELPERS[argv[0]](json.loads(argv[1]))
            print("E2E-RESULT " + json.dumps(answer), flush=True)
            return 0
        return _run_workload(argv[0], json.loads(argv[1]))
    finally:
        if profiles is not None:
            _dump_profile(profiles, profile_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
