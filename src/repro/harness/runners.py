"""Shared experiment runners used by the per-figure harnesses and benches.

Two entry points:

* :func:`run_collective` — one collective set (chunked and scheduled
  exactly as in a training run) on a freshly built platform; returns the
  set duration and the delay breakdown.  Used by the Fig. 9-12 studies.
* :func:`run_training` — a full multi-iteration training simulation;
  returns the :class:`~repro.workload.training_loop.TrainingReport`.
  Used by the Fig. 13-18 studies.  The name resolves on first access
  (``from repro.harness.runners import run_training``) together with the
  workload layer it runs, so a collective run never imports that layer
  and a training run has it loaded before the training starts.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.collectives.types import CollectiveOp
from repro.config.parameters import (
    AllToAllShape,
    CollectiveAlgorithm,
    DesignPoint,
    SchedulingPolicy,
    SimulationConfig,
    SystemConfig,
    TopologyKind,
    TorusShape,
)
from repro.config.presets import (
    paper_network_config,
    paper_simulation_config,
    symmetric_network_config,
)
from repro.errors import ConfigError
from repro.events.engine import EventQueue
from repro.system.stats import DelayBreakdown
from repro.system.sys_layer import System
from repro.topology.logical import LogicalTopology, topology_builder

if TYPE_CHECKING:
    from repro.workload.model import DNNModel
    from repro.workload.training_loop import TrainingReport

#: Collective-sweep message sizes (bytes): the Fig. 9-11 x-axes.
SWEEP_SIZES = (64 * 1024, 512 * 1024, 4 * 1024 * 1024, 32 * 1024 * 1024)

#: A generous event cap for the workload runs — purely a livelock guard.
MAX_EVENTS = 400_000_000


@dataclass
class CollectiveResult:
    """Outcome of one collective run."""

    label: str
    op: CollectiveOp
    size_bytes: float
    duration_cycles: float
    breakdown: DelayBreakdown
    num_npus: int
    #: repro.system.transport.TransportStats when the run used the
    #: reliable transport; None otherwise.
    transport_stats: Optional[object] = None
    #: The system the run executed on (the watchdog, transport and fault
    #: state live on it); kept out of repr, it is not a result value.
    system: Optional[System] = field(default=None, repr=False)


@dataclass
class PlatformSpec:
    """Everything needed to build one simulated platform."""

    name: str
    topology_builder: Callable[[SystemConfig], LogicalTopology]
    config: SimulationConfig
    #: Optional repro.network.fault_schedule.FaultSchedule installed into
    #: every system built from this spec.
    fault_schedule: Optional[object] = None
    #: Optional repro.resilience.watchdog.WatchdogConfig: stall detection
    #: for every system built from this spec (docs/RESILIENCE.md).
    watchdog: Optional[object] = None
    #: Optional backend constructor ``(events, network, sanitizer) ->
    #: NetworkBackend`` selecting a non-default backend (the detailed
    #: flit-level one); None builds the fast analytical backend.
    backend_factory: Optional[Callable] = None

    def build_system(self, sanitize: bool = False,
                     events: Optional[EventQueue] = None) -> System:
        """Build the system; ``sanitize=True`` attaches a fresh
        :class:`repro.sanitize.runtime.RuntimeSanitizer` (runtime invariant
        checking at a small instrumentation cost).  ``events`` supplies a
        caller-built event queue — the schedule-perturbation detector
        (:mod:`repro.sanitize.schedule`) passes queues with a tie-break
        hook or tracing installed; it wins over the sanitizer's queue."""
        topology = self.topology_builder(self.config.system)
        sanitizer = None
        if sanitize:
            from repro.sanitize.runtime import RuntimeSanitizer

            sanitizer = RuntimeSanitizer()
        return System(topology, self.config, events=events,
                      sanitizer=sanitizer,
                      fault_schedule=self.fault_schedule,
                      watchdog=self.watchdog,
                      backend_factory=self.backend_factory)


def torus_platform(
    shape: TorusShape,
    algorithm: CollectiveAlgorithm = CollectiveAlgorithm.BASELINE,
    symmetric: bool = False,
    local_rings: int = 2,
    horizontal_rings: int = 2,
    vertical_rings: int = 2,
    scheduling_policy: SchedulingPolicy = SchedulingPolicy.LIFO,
    compute_scale: float = 1.0,
    preferred_set_splits: int = 16,
) -> PlatformSpec:
    """A hierarchical torus platform with Table IV parameters."""
    return platform_for(DesignPoint(
        topology=TopologyKind.TORUS, shape=astuple(shape), algorithm=algorithm,
        scheduling_policy=scheduling_policy, symmetric=symmetric,
        local_rings=local_rings, horizontal_rings=horizontal_rings,
        vertical_rings=vertical_rings, preferred_set_splits=preferred_set_splits,
        compute_scale=compute_scale))


def alltoall_platform(
    shape: AllToAllShape,
    algorithm: CollectiveAlgorithm = CollectiveAlgorithm.BASELINE,
    symmetric: bool = False,
    local_rings: int = 2,
    global_switches: int = 2,
    preferred_set_splits: int = 16,
    scheduling_policy: SchedulingPolicy = SchedulingPolicy.LIFO,
    compute_scale: float = 1.0,
) -> PlatformSpec:
    """A hierarchical alltoall platform with Table IV parameters."""
    return platform_for(DesignPoint(
        topology=TopologyKind.ALLTOALL, shape=astuple(shape), algorithm=algorithm,
        scheduling_policy=scheduling_policy, symmetric=symmetric,
        local_rings=local_rings, global_switches=global_switches,
        preferred_set_splits=preferred_set_splits, compute_scale=compute_scale))


def platform_for(point: DesignPoint) -> PlatformSpec:
    """The platform of one Table III design point with Table IV
    parameters: the CLI, the service payload, the search and the figure
    harnesses all build here.

    ``symmetric`` equalizes every link to the inter-package class (the
    Sec. V-A/V-B "links with same BW" setting).  A torus reads the
    horizontal and vertical ring counts, an alltoall the global switch
    count; every other knob applies to both.
    """
    torus = point.topology is TopologyKind.TORUS
    base = paper_simulation_config(
        algorithm=point.algorithm, scheduling_policy=point.scheduling_policy,
        compute_scale=point.compute_scale,
        preferred_set_splits=point.preferred_set_splits)
    network = symmetric_network_config() if point.symmetric else paper_network_config()
    # Values a family never reads stay fixed so that configs, and the
    # run-cache keys made from them, do not depend on them: an AllToAll
    # config keeps 2 horizontal and vertical rings, a torus keeps 2
    # global switches.
    system = replace(base.system, local_rings=point.local_rings,
                     horizontal_rings=point.horizontal_rings if torus else 2,
                     vertical_rings=point.vertical_rings if torus else 2,
                     global_switches=2 if torus else point.global_switches)
    return PlatformSpec(
        name=f"{point.topology.value.lower()}-{'x'.join(map(str, point.shape))}",
        topology_builder=topology_builder(point.topology, point.shape, network),
        config=replace(base, system=system, network=network),
    )


def run_collective(
    platform: PlatformSpec,
    op: CollectiveOp,
    size_bytes: float,
    max_events: Optional[int] = MAX_EVENTS,
    sanitize: bool = False,
    events: Optional[EventQueue] = None,
    on_system: Optional[Callable[[System], None]] = None,
) -> CollectiveResult:
    """Run one chunked collective to completion on a fresh platform.

    ``on_system`` is called with the freshly built system before the
    first event fires — observers that need system state (the service
    progress writer samples :meth:`System.progress_vector`) bind here
    without the runner growing observer-specific parameters.
    """
    system = platform.build_system(sanitize=sanitize, events=events)
    if on_system is not None:
        on_system(system)
    collective = system.request_collective(op, size_bytes, name=f"{op.value}")
    system.run_until_idle(max_events=max_events)
    if not collective.done:
        raise ConfigError(f"collective never completed on {platform.name}")
    return CollectiveResult(
        label=platform.name,
        op=op,
        size_bytes=size_bytes,
        duration_cycles=collective.duration_cycles,
        breakdown=system.breakdown,
        num_npus=system.topology.num_npus,
        transport_stats=system.transport_stats(),
        system=system,
    )


def sweep_collective(
    platform_builder: Callable[[], PlatformSpec],
    op: CollectiveOp,
    sizes: Sequence[float] = SWEEP_SIZES,
    executor: Optional[object] = None,
) -> list[CollectiveResult]:
    """Run ``op`` across message sizes, one fresh platform per point.

    Points go through a :class:`repro.parallel.ParallelExecutor` — the
    one passed in, else the process-wide default (serial and uncached
    unless the CLI installed one via ``--jobs``/``--cache-dir``).  Results
    come back in size order regardless of job count, bit-identical to the
    serial loop this used to be.

    Under a supervised executor a quarantined point comes back as an
    explicit ``None`` gap instead of aborting the sweep.
    """
    from repro.parallel.executor import RunPoint, default_executor

    ex = executor if executor is not None else default_executor()
    points = [RunPoint(builder=platform_builder, op=op, size_bytes=float(size))
              for size in sizes]
    return ex.run_points(points)


def _run_training(
    model: DNNModel,
    platform: PlatformSpec,
    num_iterations: int = 2,
    max_events: Optional[int] = MAX_EVENTS,
    sanitize: bool = False,
) -> tuple[TrainingReport, System]:
    """Run a training workload; returns the report and the system (for
    its delay breakdown)."""
    from repro.workload.training_loop import TrainingLoop

    system = platform.build_system(sanitize=sanitize)
    report = TrainingLoop(system, model, num_iterations=num_iterations).run(
        max_events=max_events
    )
    return report, system


def __getattr__(name: str) -> Any:
    """``run_training``, resolved with the training layer it runs."""
    if name != "run_training":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import repro.workload.training_loop  # noqa: F401

    return _run_training
