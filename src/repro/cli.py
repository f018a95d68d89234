"""The ``astra-repro`` command line interface.

Exposes the Table III input parameters and the predefined workloads::

    astra-repro train --model resnet50 --topology Torus --shape 2x4x4 \\
        --algorithm enhanced --scheduling-policy LIFO --num-passes 2

    astra-repro collective --op allreduce --size-mb 8 --topology Torus \\
        --shape 4x4x4 --algorithm enhanced

    astra-repro workload-file my_dnn.txt --shape 2x2x2

Each subcommand imports what it runs inside its own handler, so a
``collective`` never loads the models, the figure harnesses, the search,
the supervisor's process pools or the detailed backend.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.collectives.types import COLLECTIVE_OPS, CollectiveOp
from repro.config.fields import RULE, build, rules
from repro.config.parameters import DesignPoint
from repro.config.units import MB
from repro.errors import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    ConfigError,
    PoisonPointError,
    ReproError,
)

#: The predefined workloads (Table III #1), each a builder of the same name
#: in its own repro.models module.
_MODELS = ("dlrm", "mlp", "resnet50", "transformer")

#: The ``--op`` choices: the shared op table, spelled by value.
_OP_NAMES = sorted(op.value for op in COLLECTIVE_OPS)


def _build_model(name: str, compute):
    from importlib import import_module

    return getattr(import_module(f"repro.models.{name}"), name)(compute=compute)


def _build_platform(args: argparse.Namespace):
    point = build(DesignPoint, {name: getattr(args, name) for name in rules(DesignPoint)})
    return _apply_watchdog_args(_apply_fault_args(point.platform_spec(), args), args)


def _apply_fault_args(spec, args: argparse.Namespace):
    """Attach --fault-schedule / --transport to a platform spec.

    A fault schedule implies the reliable transport (an unprotected run
    would deadlock on the first dropped message).
    """
    if getattr(args, "fault_schedule", None):
        from repro.network.fault_schedule import FaultSchedule

        spec.fault_schedule = FaultSchedule.from_file(args.fault_schedule)
    if (getattr(args, "transport", False) or spec.fault_schedule is not None) \
            and spec.config.system.transport is None:
        from dataclasses import replace

        from repro.config.parameters import TransportConfig

        spec.config = replace(
            spec.config,
            system=replace(spec.config.system, transport=TransportConfig()),
        )
    return spec


def _apply_watchdog_args(spec, args: argparse.Namespace):
    """Attach --watchdog to a spec; --bundle-dir or an explicit
    --watchdog-stall-cycles imply it.

    The watchdog observes through the event queue's watcher hook, so the
    simulated trajectory is identical with or without these flags
    (docs/RESILIENCE.md).
    """
    stall_cycles = getattr(args, "watchdog_stall_cycles", None)
    bundle_dir = getattr(args, "bundle_dir", None)
    if getattr(args, "watchdog", False) or stall_cycles is not None \
            or bundle_dir is not None:
        from repro.resilience.watchdog import WatchdogConfig

        if stall_cycles is None:
            stall_cycles = WatchdogConfig.stall_cycles
        spec.watchdog = WatchdogConfig(stall_cycles=stall_cycles,
                                       bundle_dir=bundle_dir)
    return spec


def _print_transport_stats(stats) -> None:
    if stats is not None:
        print(stats.summary())


def _record_profile(args: argparse.Namespace, system) -> None:
    """Feed a finished system's event counters to the --profile output."""
    if not args.profile or system is None:
        return
    from repro.profiling.profiler import active_profile

    profile = active_profile()
    if profile is not None:
        profile.record_system(system)


def _add_execution_args(p: argparse.ArgumentParser, default=None) -> None:
    """The --jobs/--cache-dir/--no-cache/--profile and supervision flags.

    Added to the root parser with real defaults (``default=None``) and
    mirrored on subcommands with ``default=argparse.SUPPRESS``, so they
    work in either position (``astra-repro chaos --jobs 4`` and
    ``astra-repro --jobs 4 chaos``) and an omitted subcommand flag never
    clobbers a root-level value."""
    def real(value):
        return default if default is argparse.SUPPRESS else value

    p.add_argument("--jobs", type=int, default=real(1), metavar="N",
                   help="fan independent simulation points (sweep sizes, "
                        "chaos iterations) across N worker processes; "
                        "results are bit-identical at any N")
    p.add_argument("--cache-dir", default=real(None), metavar="DIR",
                   help="content-addressed run cache: completed pure "
                        "points are stored in DIR and re-served instead "
                        "of re-simulated (docs/PERFORMANCE.md)")
    p.add_argument("--no-cache", action="store_true", default=real(False),
                   help="ignore --cache-dir (always simulate fresh)")
    p.add_argument("--profile", action="store_true", default=real(False),
                   help="print per-phase wall-clock and events/sec after "
                        "the command")
    # The supervised-execution flags (docs/SUPERVISION.md).
    p.add_argument("--supervise", action="store_true", default=real(False),
                   help="run design points crash-isolated: worker deaths "
                        "retry with seeded backoff, poison points are "
                        "quarantined and the batch continues "
                        "(docs/SUPERVISION.md)")
    p.add_argument("--point-timeout", type=float, default=real(None),
                   metavar="SECONDS",
                   help="wall-clock deadline per design point; a point that "
                        "exceeds it is reaped and charged a retry "
                        "(implies --supervise)")
    p.add_argument("--point-event-budget", type=int, default=real(None),
                   metavar="N",
                   help="max simulated events per design point attempt "
                        "(implies --supervise)")
    p.add_argument("--max-point-retries", type=int, default=real(None),
                   metavar="N",
                   help="failed attempts re-run up to N times before the "
                        "point is quarantined (default 2; implies "
                        "--supervise)")
    p.add_argument("--on-poison", choices=("quarantine", "fail"),
                   default=real(None),
                   help="quarantine: record the poison point and continue "
                        "(exit 1); fail: abort the whole batch (implies "
                        "--supervise)")
    p.add_argument("--journal", default=real(None), metavar="PATH",
                   help="append every point outcome to this JSONL journal; "
                        "a re-run resumes past completed AND quarantined "
                        "points (implies --supervise)")
    p.add_argument("--quarantine-dir", default=real(None), metavar="DIR",
                   help="write poison-point diagnostic bundles and the "
                        "quarantine report into DIR (implies --supervise)")


def _supervision_from_args(args: argparse.Namespace):
    """(policy, journal_path, quarantine_dir) when any supervision flag
    was given; (None, None, None) → an unsupervised executor."""
    given = (getattr(args, "supervise", False)
             or any(getattr(args, key, None) is not None
                    for key in ("point_timeout", "point_event_budget",
                                "max_point_retries", "on_poison", "journal",
                                "quarantine_dir")))
    if not given:
        return None, None, None
    from repro.parallel.supervisor import SupervisionPolicy

    retries = getattr(args, "max_point_retries", None)
    policy = SupervisionPolicy(
        point_timeout_s=getattr(args, "point_timeout", None),
        point_event_budget=getattr(args, "point_event_budget", None),
        max_retries=retries if retries is not None else 2,
        on_poison=getattr(args, "on_poison", None) or "quarantine",
    )
    return (policy, getattr(args, "journal", None),
            getattr(args, "quarantine_dir", None))


#: Help for the design-point flags.  Each flag's name, type, choices and
#: default come from the :class:`DesignPoint` table.
_DESIGN_HELP = {
    "topology": "logical topology (Table III #8)",
    "shape": "MxNxK torus (local x horizontal x vertical) or MxN alltoall "
             "(default 2x4x4 torus, 4x16 alltoall)",
    "algorithm": "collective algorithm (Table III #3)",
    "scheduling_policy": "ready-queue order (Table III #7)",
    "symmetric": "equalize local links to inter-package bandwidth",
    "local_rings": "Table III #9",
    "horizontal_rings": "Table III #11",
    "vertical_rings": "Table III #10",
    "global_switches": "Table III #12",
    "preferred_set_splits": "chunks per collective set (Table III #16)",
    "compute_scale": "NPU compute-power multiplier (Fig. 18)",
}

#: The flag type of each field kind; booleans are store_true switches.
_FLAG_TYPES = {"int": int, "number": float, "choice": str, "shape": str}


def _add_platform_args(p: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(DesignPoint):
        flag, rule = "--" + f.name.replace("_", "-"), f.metadata[RULE]
        if rule.kind == "bool":
            p.add_argument(flag, action="store_true", help=_DESIGN_HELP[f.name])
        else:
            p.add_argument(flag, type=_FLAG_TYPES[rule.kind],
                           choices=rule.tokens or None,
                           default=getattr(f.default, "value", f.default),
                           help=_DESIGN_HELP[f.name])
    p.add_argument("--sanitize", action="store_true",
                   help="enable the runtime invariant sanitizer (time-travel, "
                        "livelock, flit/credit conservation, barrier checks)")
    p.add_argument("--fault-schedule", default=None, metavar="PATH",
                   help="JSON fault schedule injecting timed link/node "
                        "failures mid-run (docs/FAULTS.md); implies "
                        "--transport")
    p.add_argument("--transport", action="store_true",
                   help="wrap the network in the reliable transport "
                        "(timeouts, retransmission with backoff)")
    p.add_argument("--watchdog", action="store_true",
                   help="abort with a StallError and a diagnostic bundle "
                        "when no progress happens for --watchdog-stall-cycles")
    p.add_argument("--watchdog-stall-cycles", type=float, default=None,
                   metavar="CYCLES",
                   help="no-progress window before the watchdog trips "
                        "(default 2,000,000; implies --watchdog)")
    p.add_argument("--bundle-dir", default=None, metavar="DIR",
                   help="write watchdog diagnostic bundles into DIR "
                        "(implies --watchdog)")


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.analysis.report import RunSummary, format_breakdown, format_layer_table
    from repro.harness.runners import run_training

    platform = _build_platform(args)
    if args.workload_file:
        from repro.workload.parser import load

        model = load(args.workload_file)
    else:
        model = _build_model(args.model, platform.config.compute)
    report, system = run_training(model, platform, num_iterations=args.num_passes,
                                  sanitize=args.sanitize)
    print(RunSummary.from_report(report).format())
    _record_profile(args, system)
    _print_transport_stats(system.transport_stats())
    if args.layer_table:
        print()
        print(format_layer_table(report))
    if args.breakdown:
        print()
        print(format_breakdown(system.breakdown))
    return EXIT_OK


def _cmd_collective(args: argparse.Namespace) -> int:
    from repro.parallel.executor import RunPoint, default_executor

    # One design-space point through the executor: pure runs hit the
    # --cache-dir store; anything impure (faults, watchdog, transport,
    # --sanitize) executes fresh in-process with its system kept live.
    point = RunPoint(builder=lambda: _build_platform(args), op=CollectiveOp(args.op),
                     size_bytes=args.size_mb * MB, sanitize=args.sanitize)
    outcome = default_executor().run_outcomes([point])[0]
    if not outcome.ok:
        # Supervised run quarantined the point: the partial-result
        # contract (exit 1) is applied by main() from the quarantine.
        print(f"{args.op} of {args.size_mb} MB: point "
              f"{outcome.status.value} ({outcome.failure_class}) after "
              f"{outcome.attempts} attempt(s)")
        return EXIT_PARTIAL
    result = outcome.result
    print(f"{args.op} of {args.size_mb} MB on {result.label} "
          f"({result.num_npus} NPUs): {result.duration_cycles:,.0f} cycles")
    _record_profile(args, result.system)
    _print_transport_stats(result.transport_stats)
    if args.breakdown:
        from repro.analysis.report import format_breakdown

        print()
        print(format_breakdown(result.breakdown))
    if args.check_schedule:
        from repro.sanitize.schedule import CollectiveProbe, run_schedule_trials

        probe = CollectiveProbe(
            label=f"collective/{args.op}",
            platform_builder=lambda: _build_platform(args),
            op=CollectiveOp(args.op),
            size_bytes=args.size_mb * MB,
        )
        report = run_schedule_trials(probe, trials=args.schedule_trials,
                                     seed=args.schedule_seed)
        print(report.summary())
        if not report.identical:
            return EXIT_PARTIAL
    return EXIT_OK


def _cmd_bandwidth(args: argparse.Namespace) -> int:
    from repro.harness.bandwidth_test import format_points, measure

    try:
        sizes = [float(tok) * MB for tok in args.sizes_mb.split(",")]
    except ValueError:
        raise ConfigError(f"bad --sizes-mb list: {args.sizes_mb!r}") from None
    points = measure(lambda: _build_platform(args), CollectiveOp(args.op), sizes,
                     sanitize=args.sanitize)
    print(f"{args.op} bandwidth test on {_build_platform(args).name}:")
    print(format_points(points))
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    import os

    from repro.parallel.executor import default_executor
    from repro.search.driver import load_trajectory, rank_frontier, run_search
    from repro.search.objectives import make_objective
    from repro.search.report import SearchReport
    from repro.search.space import SearchSpace
    from repro.search.strategies import make_strategy

    space = SearchSpace.from_file(args.space)
    objective = make_objective(args.objective, space.cost_table, space.size_bytes)
    strategy = make_strategy(args.strategy, space, args.seed,
                             generation_size=args.generation_size,
                             mu=args.mu, lam=args.lam,
                             mutation_rate=args.mutation_rate)
    executor = default_executor()
    simulations_before = executor.simulations_run

    # On resume, prior evaluations re-enter the frontier (run_search
    # preloads them into its memo so they cost no budget and no sims).
    prior = {}
    if args.resume and args.trajectory and os.path.exists(args.trajectory):
        prior = load_trajectory(args.trajectory, space, objective)

    trajectory = run_search(space, objective, strategy, budget=args.budget,
                            executor=executor,
                            trajectory_path=args.trajectory,
                            resume=args.resume)
    report = SearchReport(
        space=space.name,
        num_npus=space.num_npus,
        collective=space.collective.value,
        size_bytes=space.size_bytes,
        objective=objective.name,
        strategy=strategy.name,
        seed=args.seed,
        budget=args.budget,
        frontier=rank_frontier(trajectory, prior),
        evaluations=len(trajectory),
        simulations=executor.simulations_run - simulations_before,
        cache_summary=(executor.cache.summary()
                       if executor.cache is not None else None),
    )
    print(report.format_table(top=args.top))
    if args.out:
        report.write_json(args.out)
        print(f"report written to {args.out}")
    if args.trajectory:
        print(f"trajectory log: {args.trajectory}")
    return EXIT_OK


#: Shared exit-code contract of the checking subcommands (lint, analyze),
#: rendered into their --help epilogs.
_EXIT_CODES_DOC = """\
exit status:
  0  clean: no findings at severity ERROR (nor WARNING, under --strict)
  1  findings at severity ERROR (or WARNING with --strict)
  2  usage or configuration error
"""

#: Exit-code contract of supervised runs (docs/SUPERVISION.md), rendered
#: into the root --help epilog.
_SUPERVISED_EXIT_CODES_DOC = """\
exit status (supervised runs; docs/SUPERVISION.md):
  0  every design point completed
  1  partial results: at least one point was quarantined
     (crash / deadline / poison) — completed points are still reported
  2  usage or configuration error
"""


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.sanitize.static_lint import lint_presets, lint_spec_file
    from repro.sanitize.findings import reports_to_json

    reports = []
    if args.presets or not args.specs:
        reports.extend(lint_presets())
    for path in args.specs:
        reports.append(lint_spec_file(path))

    if args.json:
        print(reports_to_json(reports))
    else:
        for report in reports:
            if report.findings:
                print(report.format())
            else:
                print(f"{report.source}: ok")

    clean = all(report.ok(strict=args.strict) for report in reports)
    return EXIT_OK if clean else EXIT_PARTIAL


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.sanitize.findings import reports_to_json

    # With no mode flag, run both analyses (the CI gate's default).
    modes_given = (args.source is not None or args.schedule
                   or args.inject_race)
    do_source = args.source is not None or not modes_given
    do_schedule = args.schedule or args.inject_race or not modes_given

    source_reports = []
    schedule_reports = []
    finding_reports = []

    if do_source:
        from repro.sanitize.source_lint import (
            default_source_root,
            lint_source_tree,
        )

        source_root = args.source or default_source_root()
        source_reports = lint_source_tree(source_root)
        finding_reports.extend(source_reports)

    if do_schedule:
        from repro.sanitize.schedule import run_schedule_trials

        probes = []
        if not args.inject_race or args.schedule:
            from repro.harness import fig09, fig12

            probes.extend(fig09.schedule_probes())
            probes.extend(fig12.schedule_probes())
        if args.inject_race:
            from repro.sanitize.schedule import InjectedRaceProbe

            probes.append(InjectedRaceProbe())
        for probe in probes:
            report = run_schedule_trials(
                probe, trials=args.schedule_trials, seed=args.schedule_seed)
            schedule_reports.append(report)
            finding_reports.append(report.to_findings())

    if args.json:
        print(reports_to_json(finding_reports))
    else:
        if do_source:
            flagged = [r for r in source_reports if r.findings]
            for report in flagged:
                print(report.format())
            total = sum(len(r.findings) for r in source_reports)
            print(f"source lint: {len(source_reports)} files, "
                  f"{total} findings")
        for report in schedule_reports:
            print(report.summary())

    if args.report:
        import json

        payload = {
            "source": [r.to_dict() for r in source_reports],
            "schedule": [r.to_dict() for r in schedule_reports],
        }
        with open(args.report, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"report written to {args.report}")

    clean = all(r.ok(strict=args.strict) for r in finding_reports)
    return EXIT_OK if clean else EXIT_PARTIAL


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import ChaosConfig, run_chaos

    backends = tuple(tok.strip() for tok in args.backends.split(",") if tok.strip())
    config = ChaosConfig(
        iterations=args.iterations,
        seed=args.seed,
        backends=backends,
        max_events=args.max_events,
        bundle_dir=args.bundle_dir,
    )
    report = run_chaos(config, log=print if args.verbose else None)
    print(report.format())
    if args.report:
        import json

        with open(args.report, "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"report written to {args.report}")
    return EXIT_OK if report.ok else EXIT_PARTIAL


def _cmd_memory(args: argparse.Namespace) -> int:
    from repro.config.units import GB
    from repro.workload.memory import estimate_footprint

    model = _build_model(args.model, None)
    footprint = estimate_footprint(
        model, model_parallel_degree=args.model_parallel_degree)
    capacity = args.hbm_gb * GB
    print(f"{args.model}: per-NPU memory footprint")
    print(f"  parameters : {footprint.parameter_bytes / GB:8.2f} GB")
    print(f"  gradients  : {footprint.gradient_bytes / GB:8.2f} GB")
    print(f"  optimizer  : {footprint.optimizer_bytes / GB:8.2f} GB")
    print(f"  activations: {footprint.activation_bytes / GB:8.2f} GB")
    print(f"  total      : {footprint.total_bytes / GB:8.2f} GB "
          f"({footprint.utilization(capacity):.1%} of {args.hbm_gb:g} GB HBM)")
    if not footprint.fits(capacity):
        print("  WARNING: does not fit the configured HBM capacity")
        return EXIT_PARTIAL
    return EXIT_OK


#: Default per-job wall-clock deadline when ``serve`` runs without any
#: supervision flags — a daemon must never let one hung payload wedge
#: its single worker forever.
_SERVE_DEFAULT_TIMEOUT_S = 300.0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.parallel.supervisor import SupervisionPolicy
    from repro.service.daemon import ServiceConfig, ServiceDaemon

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    policy, journal_path, quarantine_dir = _supervision_from_args(args)
    if policy is None:
        policy = SupervisionPolicy(point_timeout_s=_SERVE_DEFAULT_TIMEOUT_S)
    config = ServiceConfig(
        host=args.host, port=args.port, state_dir=args.state_dir,
        queue_limit=args.queue_limit, retry_after_s=args.retry_after,
        policy=policy, progress_every_events=args.progress_every_events,
        journal_path=journal_path, cache_dir=args.cache_dir,
        quarantine_dir=quarantine_dir)
    daemon = ServiceDaemon(config)

    def announce() -> None:
        host, port = daemon.address
        print(f"astra-repro serve listening on http://{host}:{port}")
        print(f"state: journal={config.resolved_journal()} "
              f"cache={config.resolved_cache_dir()} "
              f"quarantine={config.resolved_quarantine_dir()}")
        service = daemon.service
        if service.replayed_done or service.resumed_jobs:
            print(f"journal replay: {service.replayed_done} completed job(s) "
                  f"restored, {service.resumed_jobs} re-enqueued")

    return daemon.serve_until_signal(ready=announce)


def build_arg_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="astra-repro",
        description="ASTRA-SIM reproduction: distributed DL training simulator",
        epilog=_SUPERVISED_EXIT_CODES_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_execution_args(root)
    sub = root.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="simulate a DNN training workload")
    _add_execution_args(train, default=argparse.SUPPRESS)
    _add_platform_args(train)
    train.add_argument("--model", choices=_MODELS, default="resnet50",
                       help="predefined DNN workload (Table III #1)")
    train.add_argument("--workload-file", default=None,
                       help="Fig. 8 workload file (overrides --model)")
    train.add_argument("--num-passes", type=int, default=2,
                       help="training iterations to simulate (Table III #2)")
    train.add_argument("--layer-table", action="store_true",
                       help="print the per-layer compute/comm table (Figs. 14/15)")
    train.add_argument("--breakdown", action="store_true",
                       help="print the queue/network delay breakdown (Fig. 12b)")
    train.set_defaults(func=_cmd_train)

    coll = sub.add_parser("collective", help="time a single collective operation")
    _add_execution_args(coll, default=argparse.SUPPRESS)
    _add_platform_args(coll)
    coll.add_argument("--op", choices=_OP_NAMES, default="allreduce")
    coll.add_argument("--size-mb", type=float, default=8.0,
                      help="collective payload in MB")
    coll.add_argument("--breakdown", action="store_true")
    coll.add_argument("--check-schedule", action="store_true",
                      help="after the run, verify the result is bit-identical "
                           "under permuted same-timestamp event orders "
                           "(exit 1 on divergence; docs/DETERMINISM.md)")
    coll.add_argument("--schedule-trials", type=int, default=8, metavar="N",
                      help="permuted schedules for --check-schedule")
    coll.add_argument("--schedule-seed", type=int, default=2020, metavar="SEED",
                      help="base permutation seed for --check-schedule")
    coll.set_defaults(func=_cmd_collective)

    bw = sub.add_parser("bandwidth",
                        help="collective bandwidth test (algbw/busbw table)")
    _add_execution_args(bw, default=argparse.SUPPRESS)
    _add_platform_args(bw)
    bw.add_argument("--op", choices=_OP_NAMES, default="allreduce")
    bw.add_argument("--sizes-mb", default="0.0625,0.5,4,32",
                    help="comma-separated payload sizes in MB")
    bw.set_defaults(func=_cmd_bandwidth)

    search = sub.add_parser(
        "search",
        help="optimizer-driven design-space search over topology x BW x "
             "collective x scheduler (docs/SEARCH.md)")
    _add_execution_args(search, default=argparse.SUPPRESS)
    search.add_argument("--space", required=True, metavar="PATH",
                        help="search-space JSON (axes, constraints, cost "
                             "table; docs/SEARCH.md)")
    # The objective and strategy names are checked by make_objective and
    # make_strategy, so building the parser never imports repro.search.
    search.add_argument("--objective", default="time",
                        help="scoring: time (raw cycles), cost (amortized "
                             "$/step) or perf-per-link-dollar (negated GB/s "
                             "per interconnect dollar)")
    search.add_argument("--strategy", default="evolutionary",
                        help="seeded proposal loop: random or evolutionary")
    search.add_argument("--budget", type=int, default=32, metavar="N",
                        help="unique design points to evaluate")
    search.add_argument("--seed", type=int, default=2020,
                        help="strategy seed; same seed = same trajectory "
                             "at any --jobs value")
    search.add_argument("--generation-size", type=int, default=None,
                        metavar="N", help="random strategy: points per "
                                          "generation (default 8)")
    search.add_argument("--mu", type=int, default=None,
                        help="evolutionary: survivors per generation "
                             "(default 4)")
    search.add_argument("--lambda", dest="lam", type=int, default=None,
                        help="evolutionary: offspring per generation "
                             "(default 8)")
    search.add_argument("--mutation-rate", type=float, default=None,
                        help="evolutionary: per-gene mutation probability "
                             "(default 0.25)")
    search.add_argument("--top", type=int, default=10, metavar="N",
                        help="frontier rows to print")
    search.add_argument("--out", default=None, metavar="PATH",
                        help="write the full ranked frontier as JSON")
    search.add_argument("--trajectory", default=None, metavar="PATH",
                        help="append every evaluation to this JSONL log "
                             "(resumable with --resume)")
    search.add_argument("--resume", action="store_true",
                        help="preload --trajectory so prior evaluations "
                             "cost no budget and no simulations")
    search.set_defaults(func=_cmd_search)

    lint = sub.add_parser(
        "lint", help="statically check the shipped presets and the JSON documents "
                     "commands read before simulating",
        epilog=_EXIT_CODES_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    lint.add_argument("specs", nargs="*",
                      help="fault-schedule, search-space or service-payload "
                           "JSON files (default: lint the shipped paper presets)")
    lint.add_argument("--presets", action="store_true",
                      help="also lint the shipped paper presets")
    lint.add_argument("--json", action="store_true",
                      help="emit machine-readable findings as JSON")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as errors (exit nonzero)")
    lint.set_defaults(func=_cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="determinism analysis: AST source lint + schedule-perturbation "
             "race detection (docs/DETERMINISM.md)",
        epilog=_EXIT_CODES_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    analyze.add_argument("--source", nargs="?", const="", default=None,
                         metavar="PATH",
                         help="lint Python sources under PATH for "
                              "nondeterminism (default: the installed repro "
                              "package)")
    analyze.add_argument("--schedule", action="store_true",
                         help="run the schedule-perturbation race detector on "
                              "the Fig. 9/12 probe configs: results must be "
                              "bit-identical under permuted same-timestamp "
                              "event order")
    analyze.add_argument("--schedule-trials", type=int, default=8, metavar="N",
                         help="permuted schedules per probe (default 8)")
    analyze.add_argument("--schedule-seed", type=int, default=2020,
                         metavar="SEED",
                         help="base seed the per-trial permutations derive "
                              "from (results must be identical under every "
                              "seed)")
    analyze.add_argument("--inject-race", action="store_true",
                         help="also run the deliberately order-sensitive "
                              "self-test probe; the detector must flag it "
                              "(exits 1 by design)")
    analyze.add_argument("--json", action="store_true",
                         help="emit machine-readable findings as JSON")
    analyze.add_argument("--report", default=None, metavar="PATH",
                         help="write the full analysis (per-file findings + "
                              "per-probe trial fingerprints and any "
                              "divergence bundle) as JSON")
    analyze.add_argument("--strict", action="store_true",
                         help="treat warnings as errors (exit nonzero)")
    analyze.set_defaults(func=_cmd_analyze)

    chaos = sub.add_parser(
        "chaos",
        help="fuzz seeded fault schedules + transport configs; every run "
             "must end classified (success / graceful failure / diagnosed "
             "stall), never in a silent hang")
    _add_execution_args(chaos, default=argparse.SUPPRESS)
    chaos.add_argument("--iterations", type=int, default=25,
                       help="fuzzed runs (round-robin across --backends)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign seed; same seed = same schedules")
    chaos.add_argument("--backends", default="fast,detailed",
                       help="comma list of backends to exercise")
    chaos.add_argument("--max-events", type=int, default=5_000_000,
                       help="livelock guard per run (the watchdog should "
                            "always trip first)")
    chaos.add_argument("--bundle-dir", default=None, metavar="DIR",
                       help="write stall diagnostic bundles into DIR")
    chaos.add_argument("--report", default=None, metavar="PATH",
                       help="write the full classified report as JSON")
    chaos.add_argument("--verbose", action="store_true",
                       help="print each run as it finishes")
    chaos.set_defaults(func=_cmd_chaos)

    mem = sub.add_parser("memory",
                         help="estimate per-NPU memory footprint of a model")
    mem.add_argument("--model", choices=_MODELS, default="resnet50")
    mem.add_argument("--hbm-gb", type=float, default=32.0,
                     help="HBM capacity per NPU in GB")
    mem.add_argument("--model-parallel-degree", type=int, default=1)
    mem.set_defaults(func=_cmd_memory)

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant simulation service: validated "
             "payloads, bounded queue with backpressure, supervised "
             "execution, journal-backed crash recovery (docs/SERVICE.md)",
        epilog=_SUPERVISED_EXIT_CODES_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_execution_args(serve, default=argparse.SUPPRESS)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default loopback only)")
    serve.add_argument("--port", type=int, default=8421,
                       help="bind port; 0 picks a free port")
    serve.add_argument("--state-dir", default="serve-state", metavar="DIR",
                       help="durable daemon state: journal, run cache, "
                            "quarantine bundles, progress spool — restart "
                            "against the same DIR to resume after a crash")
    serve.add_argument("--queue-limit", type=int, default=16, metavar="N",
                       help="bounded job-queue capacity; a full queue "
                            "answers 429 with Retry-After")
    serve.add_argument("--retry-after", type=float, default=1.0,
                       metavar="SECONDS",
                       help="Retry-After hint sent with 429 responses")
    serve.add_argument("--progress-every-events", type=int, default=4096,
                       metavar="N",
                       help="progress-vector snapshot cadence in logical "
                            "events")
    serve.add_argument("--verbose", action="store_true",
                       help="per-request debug logging")
    serve.set_defaults(func=_cmd_serve)

    return root


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)

    from repro.parallel.executor import configure_default, set_default_executor

    try:
        policy, journal_path, quarantine_dir = _supervision_from_args(args)
        executor = configure_default(jobs=args.jobs, cache_dir=args.cache_dir,
                                     use_cache=not args.no_cache,
                                     supervision=policy,
                                     journal_path=journal_path,
                                     quarantine_dir=quarantine_dir)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    profile = None
    if args.profile:
        from repro.profiling.profiler import RunProfile, set_active_profile

        profile = RunProfile(name=args.command)
        set_active_profile(profile)
    try:
        if profile is not None:
            with profile.phase("command"):
                rc = args.func(args)
        else:
            rc = args.func(args)
    except PoisonPointError as exc:
        # --on-poison=fail: the batch aborted on its first poison point.
        print(f"error: {exc}", file=sys.stderr)
        _report_quarantine(executor)
        return EXIT_PARTIAL
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        set_default_executor(None)
        executor.close()
        if profile is not None:
            set_active_profile(None)
    if executor.cache is not None:
        print(executor.cache_summary())
    if profile is not None:
        print(profile.format())
    if _report_quarantine(executor):
        # Partial results: completed points were reported above, but at
        # least one point is in quarantine (docs/SUPERVISION.md).
        rc = max(rc, EXIT_PARTIAL)
    return rc


def _report_quarantine(executor) -> bool:
    """Print the quarantine summary (and write the report file when a
    quarantine dir is configured); True when anything was quarantined."""
    import os

    if not executor.quarantine:
        return False
    from repro.parallel.supervisor import (
        quarantine_summary,
        write_quarantine_report,
    )

    print(quarantine_summary(executor.quarantine), file=sys.stderr)
    if executor.quarantine_dir:
        path = write_quarantine_report(
            os.path.join(executor.quarantine_dir, "quarantine-report.json"),
            executor.policy, executor.quarantine)
        print(f"quarantine report: {path}", file=sys.stderr)
    return True


if __name__ == "__main__":
    raise SystemExit(main())
