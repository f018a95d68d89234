"""The ``astra-repro chaos`` harness: fuzzed fault schedules, classified ends.

Robustness claim under test: **no combination of dynamic faults and
transport settings may hang the simulator silently.**  Every run must end
in one of four understood ways — success, a graceful
:class:`~repro.errors.CollectiveError`/:class:`~repro.errors.TransportError`
naming the phase and dead links, a watchdog-diagnosed
:class:`~repro.errors.StallError`, or a drain-deadlock
:class:`~repro.errors.SimulationError` carrying a wait-for summary.
Anything else (including tripping the ``max_events`` livelock guard) is a
:attr:`Outcome.FAILURE` and fails the harness.

Each iteration derives a child RNG from ``(seed, iteration)``, fuzzes a
fault schedule against the platform's actual fabric (link flaps, node
pauses with and without resume, lossy links, degraded links) plus a
transport config (timeouts, retry budgets, backoff, the
``max_paused_waits`` valve), then runs one collective under the stall
watchdog on the backend the iteration lands on (round-robin across
``backends``).  Everything is seeded: ``chaos --iterations K --seed S``
reproduces bit-identical schedules, so any classified failure is
replayable from its iteration number alone.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.collectives.types import COLLECTIVE_OPS
from repro.config.parameters import TorusShape, TransportConfig
from repro.errors import (
    CollectiveError,
    ReproError,
    SimulationError,
    StallError,
    TransportError,
)
from repro.network.fault_schedule import FaultAction, FaultEvent, FaultSchedule
from repro.resilience.watchdog import WatchdogConfig

#: Simulated-cycle window fault events are fuzzed into.  Sized to overlap
#: the first few thousand cycles of the fuzzed collectives, so faults
#: actually intersect in-flight traffic instead of landing after the run.
FAULT_HORIZON = 8_000.0

#: Collective payload per backend (the detailed backend moves flits, so it
#: gets a smaller payload to keep wall-clock sane).
PAYLOAD_BYTES = {"fast": 256 * 1024.0, "detailed": 16 * 1024.0}

#: Fault-fuzz window per backend, sized to overlap the in-flight traffic
#: of that backend's payload.
HORIZONS = {"fast": FAULT_HORIZON, "detailed": 1_000.0}

#: Watchdog stall window for the fuzzed runs.
STALL_CYCLES = 1_500_000.0


class Outcome(enum.Enum):
    """How one chaos iteration ended."""

    SUCCESS = "success"
    #: The collective/transport layer gave up with a contextual error.
    GRACEFUL_FAILURE = "graceful_failure"
    #: The watchdog diagnosed a no-progress window (StallError).
    STALL = "stall"
    #: Drain deadlock with a wait-for summary attached.
    DIAGNOSED_DEADLOCK = "diagnosed_deadlock"
    #: Anything else — a silent hang, livelock guard, or unclassified
    #: exception.  Must never happen.
    FAILURE = "failure"
    #: The *host* failed the iteration — a worker process died or blew
    #: its supervised wall-clock deadline (docs/SUPERVISION.md), so the
    #: simulator never got to classify the run.  Must never happen.
    HOST_FAILURE = "host_failure"


#: Outcomes the harness accepts.
ACCEPTABLE = frozenset(
    {Outcome.SUCCESS, Outcome.GRACEFUL_FAILURE, Outcome.STALL,
     Outcome.DIAGNOSED_DEADLOCK})


@dataclass
class ChaosConfig:
    """Knobs of one chaos campaign."""

    iterations: int = 25
    seed: int = 0
    #: Backends iterations round-robin across ("fast", "detailed").
    backends: tuple = ("fast", "detailed")
    #: Livelock guard; the watchdog should always trip long before this.
    max_events: int = 5_000_000
    #: Where stall bundles land (None: in-error diagnostics only).
    bundle_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ReproError(f"chaos iterations must be positive, got "
                             f"{self.iterations}")
        unknown = set(self.backends) - {"fast", "detailed"}
        if not self.backends or unknown:
            raise ReproError(
                f"chaos backends must be a non-empty subset of "
                f"{{'fast', 'detailed'}}, got {self.backends!r}")


@dataclass
class ChaosRun:
    """Record of one classified iteration."""

    iteration: int
    backend: str
    op: str
    outcome: Outcome
    detail: str
    cycles: Optional[float] = None
    schedule: dict = field(default_factory=dict)
    transport: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "iteration": self.iteration,
            "backend": self.backend,
            "op": self.op,
            "outcome": self.outcome.value,
            "detail": self.detail,
            "cycles": self.cycles,
            "schedule": self.schedule,
            "transport": self.transport,
        }


@dataclass
class ChaosReport:
    """All runs of a campaign plus the pass/fail verdict."""

    seed: int
    runs: list = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {o.value: 0 for o in Outcome}
        for run in self.runs:
            out[run.outcome.value] += 1
        return out

    @property
    def ok(self) -> bool:
        """True iff every run ended in an understood way."""
        return all(run.outcome in ACCEPTABLE for run in self.runs)

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "ok": self.ok, "counts": self.counts,
                "runs": [run.to_dict() for run in self.runs]}

    def format(self) -> str:
        lines = [f"chaos campaign (seed={self.seed}): {len(self.runs)} runs"]
        for run in self.runs:
            cycles = f" t={run.cycles:,.0f}" if run.cycles is not None else ""
            lines.append(
                f"  [{run.iteration:3d}] {run.backend:8s} {run.op:14s} "
                f"{run.outcome.value:18s}{cycles}  {run.detail}"
            )
        counts = ", ".join(f"{k}={v}" for k, v in self.counts.items() if v)
        lines.append(f"outcomes: {counts}")
        lines.append("verdict: " + ("OK — no silent hangs" if self.ok
                                    else "FAILURE — unclassified run(s)"))
        return "\n".join(lines)


# -- fuzzers ---------------------------------------------------------------------


def fuzz_schedule(rng: random.Random, link_pairs: list,
                  num_npus: int, horizon: float = FAULT_HORIZON) -> FaultSchedule:
    """A random (but seed-reproducible) fault schedule valid for a fabric
    whose directed link endpoint pairs are ``link_pairs``."""
    events: list[FaultEvent] = []
    for _ in range(rng.randint(2, 6)):
        t = rng.uniform(0.0, horizon)
        roll = rng.random()
        if roll < 0.40:
            link = rng.choice(link_pairs)
            events.append(FaultEvent(time=t, action=FaultAction.LINK_DOWN,
                                     link=link))
            if rng.random() < 0.70:  # 30% of downed links never recover
                events.append(FaultEvent(
                    time=t + rng.uniform(0.1, 0.5) * horizon,
                    action=FaultAction.LINK_UP, link=link))
        elif roll < 0.70:
            node = rng.randrange(num_npus)
            events.append(FaultEvent(time=t, action=FaultAction.NODE_PAUSE,
                                     node=node))
            if rng.random() < 0.70:  # 30% of paused nodes never resume
                events.append(FaultEvent(
                    time=t + rng.uniform(0.1, 0.5) * horizon,
                    action=FaultAction.NODE_RESUME, node=node))
        elif roll < 0.90:
            events.append(FaultEvent(
                time=t, action=FaultAction.DROP,
                link=rng.choice(link_pairs),
                probability=rng.uniform(0.01, 0.25)))
        else:
            events.append(FaultEvent(
                time=t, action=FaultAction.LINK_DEGRADE,
                link=rng.choice(link_pairs),
                bandwidth_factor=rng.uniform(0.2, 0.9),
                extra_latency_cycles=rng.uniform(0.0, 2_000.0)))
    return FaultSchedule(events, seed=rng.randrange(2**31))


def fuzz_transport(rng: random.Random) -> TransportConfig:
    """A random (seed-reproducible) reliable-transport configuration."""
    return TransportConfig(
        timeout_cycles=float(rng.choice([20_000, 50_000, 80_000])),
        timeout_per_byte=4.0,
        max_retries=rng.randint(2, 6),
        backoff_base_cycles=float(rng.choice([500, 1_000, 4_000])),
        backoff_factor=2.0,
        backoff_max_cycles=100_000.0,
        jitter=rng.choice([0.0, 0.1, 0.3]),
        seed=rng.randrange(2**31),
        max_paused_waits=rng.choice([5, 50, 1_000]),
    )


# -- the campaign -----------------------------------------------------------------


def _build_spec(backend: str, schedule: FaultSchedule,
                transport: TransportConfig, watchdog: WatchdogConfig):
    """A small 2x2x2 torus platform carrying the fuzzed fault/transport
    configuration, on the requested backend."""
    from dataclasses import replace

    from repro.harness.runners import torus_platform

    spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
    spec.config = replace(
        spec.config, system=replace(spec.config.system, transport=transport))
    spec.fault_schedule = schedule
    spec.watchdog = watchdog
    if backend == "detailed":
        from repro.network.detailed.backend import DetailedBackend

        spec.backend_factory = (
            lambda events, network, sanitizer:
            DetailedBackend(events, network, sanitizer=sanitizer))
    return spec


def _classify(exc: BaseException) -> tuple[Outcome, str]:
    if isinstance(exc, StallError):
        return Outcome.STALL, str(exc).splitlines()[0]
    if isinstance(exc, (CollectiveError, TransportError)):
        return Outcome.GRACEFUL_FAILURE, str(exc).splitlines()[0]
    if isinstance(exc, SimulationError) and "wait-for summary" in str(exc):
        return Outcome.DIAGNOSED_DEADLOCK, str(exc).splitlines()[0]
    return Outcome.FAILURE, f"{type(exc).__name__}: {exc}"


def run_iteration(config: ChaosConfig, i: int) -> ChaosRun:
    """Fuzz, run, and classify chaos iteration ``i`` of a campaign.

    Module-level and driven only by ``(config, i)`` — the per-iteration
    RNG is ``random.Random(f"{seed}:{i}")``, never a shared stream — so
    iterations are independent, picklable for process-parallel fan-out,
    and classify identically at any job count.
    """
    from repro.harness.runners import run_collective

    rng = random.Random(f"{config.seed}:{i}")
    backend = config.backends[i % len(config.backends)]
    op = rng.choice(COLLECTIVE_OPS)
    size = PAYLOAD_BYTES[backend]
    transport = fuzz_transport(rng)
    watchdog = WatchdogConfig(stall_cycles=STALL_CYCLES,
                              check_every_events=64,
                              bundle_dir=config.bundle_dir)
    # Fuzz against the actual fabric: build the topology once just to
    # enumerate its directed link endpoint pairs.
    probe = _build_spec(backend, FaultSchedule([]), transport, watchdog)
    fabric = probe.topology_builder(probe.config.system).fabric
    link_pairs = sorted({(l.src, l.dst) for l in fabric.links})
    schedule = fuzz_schedule(rng, link_pairs, fabric.num_npus,
                             horizon=HORIZONS[backend])

    spec = _build_spec(backend, schedule, transport, watchdog)
    try:
        result = run_collective(spec, op, size,
                                max_events=config.max_events)
        outcome, detail, cycles = (
            Outcome.SUCCESS, f"{result.duration_cycles:,.0f} cycles",
            result.duration_cycles)
    except Exception as exc:  # noqa: BLE001 - classification boundary
        outcome, detail = _classify(exc)
        cycles = None
    return ChaosRun(
        iteration=i, backend=backend, op=op.value, outcome=outcome,
        detail=detail, cycles=cycles, schedule=schedule.to_dict(),
        transport={"max_retries": transport.max_retries,
                   "timeout_cycles": transport.timeout_cycles,
                   "max_paused_waits": transport.max_paused_waits,
                   "jitter": transport.jitter,
                   "seed": transport.seed})


def run_chaos(config: ChaosConfig,
              log: Optional[Callable[[str], None]] = None,
              executor=None) -> ChaosReport:
    """Run one chaos campaign; returns the classified report.

    Iterations fan out through ``executor`` (a
    :class:`repro.parallel.ParallelExecutor`; defaults to the process
    -wide one).  Chaos runs are never cached — their side effects are the
    point — and the report is identical at any job count because every
    iteration seeds its own RNG from ``(seed, i)``.

    Under a supervised executor an iteration whose *worker* dies or hangs
    (as opposed to the simulated platform failing) is classified
    :attr:`Outcome.HOST_FAILURE` — never acceptable — instead of silently
    aborting the campaign.
    """
    import functools

    from repro.parallel.executor import default_executor

    ex = executor if executor is not None else default_executor()
    iterate = functools.partial(run_iteration, config)
    runs = []
    for i, outcome in enumerate(ex.map_outcomes(iterate,
                                                range(config.iterations))):
        if outcome.ok:
            runs.append(outcome.result)
        else:
            runs.append(ChaosRun(
                iteration=i,
                backend=config.backends[i % len(config.backends)],
                op="?", outcome=Outcome.HOST_FAILURE,
                detail=f"{outcome.failure_class}: {outcome.error}"))
    report = ChaosReport(seed=config.seed, runs=runs)
    if log is not None:
        for run in report.runs:
            log(f"[{run.iteration + 1}/{config.iterations}] {run.backend} "
                f"{run.op}: {run.outcome.value} ({run.detail})")
    return report
