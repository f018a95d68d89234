"""Pipeline parallelism (Sec. III-A lists it alongside data and model
parallelism as a core partitioning strategy).

A GPipe-style schedule: the model's layers are partitioned into
contiguous *stages*, each pinned to one NPU; a minibatch splits into
microbatches that stream through the stages.  Activations flow forward
and gradients backward as point-to-point transfers over the fabric's
routed paths, and each stage is a serial compute resource — so the
simulation reproduces the pipeline *bubble*: for uniform stages the idle
fraction approaches (S-1)/(M+S-1).

The loop builds a :class:`repro.workload.graph.WorkloadGraph` with one
compute stream per stage: a forward task becomes ready when its
activation lands, a backward task when its output gradient lands, and
one join per iteration admits the next iteration's microbatches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import WorkloadError
from repro.system.sys_layer import System
from repro.workload.graph import WorkloadGraph
from repro.workload.model import DNNModel


@dataclass(frozen=True)
class PipelineStage:
    """One pipeline stage: its NPU and per-microbatch costs."""

    index: int
    node: int
    forward_cycles: float
    backward_cycles: float
    #: Activation bytes sent to the next stage per microbatch (unused for
    #: the last stage); the gradient flowing back is the same size.
    activation_bytes: float

    def __post_init__(self) -> None:
        if self.forward_cycles < 0 or self.backward_cycles < 0:
            raise WorkloadError(f"stage {self.index}: compute must be >= 0")
        if self.activation_bytes < 0:
            raise WorkloadError(f"stage {self.index}: activation bytes < 0")


class PipelineSchedule(str, enum.Enum):
    """Microbatch schedules.

    GPIPE admits every microbatch into the pipeline immediately (all
    forwards stream in, backwards follow) and runs each stage's ready
    tasks in arrival order — maximal throughput, O(M) stashed activations
    on the early stages.  ONE_F_ONE_B admits microbatch m once microbatch
    m - S has finished its backward at stage 0, which caps each stage's
    in-flight forwards at its pipeline depth (S - index), and prefers a
    ready backward over a ready forward, bounding stashed activations at
    O(S) per stage with the same steady-state throughput.
    """

    GPIPE = "gpipe"
    ONE_F_ONE_B = "1f1b"


@dataclass
class StageReport:
    """Per-stage accounting across the run."""

    index: int
    node: int
    busy_cycles: float = 0.0
    forward_tasks: int = 0
    backward_tasks: int = 0
    #: Peak number of microbatches forwarded but not yet backwarded here —
    #: the activation-stash high-water mark (the 1F1B motivation).
    peak_stashed_activations: int = 0


@dataclass
class PipelineReport:
    """The result of a pipeline-parallel run."""

    num_stages: int
    num_microbatches: int
    num_iterations: int
    total_cycles: float
    stages: list[StageReport]
    comm_cycles: float

    @property
    def busy_cycles(self) -> float:
        return sum(s.busy_cycles for s in self.stages)

    @property
    def bubble_fraction(self) -> float:
        """Mean per-stage idle fraction — the pipeline bubble."""
        capacity = self.num_stages * self.total_cycles
        return 1.0 - self.busy_cycles / capacity if capacity else 0.0

    @property
    def ideal_bubble_fraction(self) -> float:
        """GPipe's (S-1)/(M+S-1) for uniform stages and free communication."""
        s, m = self.num_stages, self.num_microbatches
        return (s - 1) / (m + s - 1)


class PipelineTrainingLoop:
    """Runs GPipe-style pipeline-parallel training on a simulated system."""

    def __init__(
        self,
        system: System,
        stages: Sequence[PipelineStage],
        num_microbatches: int,
        num_iterations: int = 1,
        schedule: PipelineSchedule = PipelineSchedule.GPIPE,
    ):
        if len(stages) < 2:
            raise WorkloadError("a pipeline needs >= 2 stages")
        if num_microbatches < 1:
            raise WorkloadError("num_microbatches must be >= 1")
        if num_iterations < 1:
            raise WorkloadError("num_iterations must be >= 1")
        indices = [s.index for s in stages]
        if indices != list(range(len(stages))):
            raise WorkloadError(f"stage indices must be 0..S-1, got {indices}")
        nodes = [s.node for s in stages]
        if len(set(nodes)) != len(nodes):
            raise WorkloadError(f"stages must map to distinct NPUs: {nodes}")
        self.system = system
        self.stages = list(stages)
        self.num_microbatches = num_microbatches
        self.num_iterations = num_iterations
        self.schedule = schedule

    def run(self, max_events: Optional[int] = None) -> PipelineReport:
        graph = WorkloadGraph(self.system)
        stages, last = self.stages, len(self.stages) - 1
        one_f_one_b = self.schedule is PipelineSchedule.ONE_F_ONE_B
        forward_rank = 1 if one_f_one_b else 0
        forwards: set[int] = set()

        def transfer(deps: list[int], src: int, dst: int, kind: str, m: int) -> list[int]:
            return [graph.p2p(deps, stages[src].node, stages[dst].node,
                              stages[min(src, dst)].activation_bytes,
                              name=f"{kind}(s{src}->s{dst}, m{m})")]

        # The previous iteration's join, which admits this one.
        gate: list[int] = []
        for _ in range(self.num_iterations):
            first_backwards: list[int] = []
            for m in range(self.num_microbatches):
                deps = gate
                if one_f_one_b and m >= len(stages):
                    deps = [first_backwards[m - len(stages)]]
                for s, stage in enumerate(stages):
                    if s:
                        deps = transfer(deps, s - 1, s, "act", m)
                    deps = [graph.compute(stage.forward_cycles, s, deps, forward_rank)]
                    forwards.add(deps[0])
                for s in range(last, -1, -1):
                    if s < last:
                        deps = transfer(deps, s + 1, s, "grad", m)
                    deps = [graph.compute(stages[s].backward_cycles, s, deps)]
                first_backwards.append(deps[0])
            gate = [graph.join(first_backwards)]
        graph.run(max_events)

        # Each stage runs its tasks one at a time, so completion order is
        # also the order they started in.
        reports = [StageReport(s.index, s.node) for s in stages]
        stashed = [0] * len(stages)
        comm_cycles = 0.0
        for number in graph.completed:
            node = graph.nodes[number]
            if node.request is not None:
                # det: allow[float-accumulation] summed in completion order
                comm_cycles += node.handle.duration_cycles
            elif node.cycles is not None:
                s, report = node.stream, reports[node.stream]
                # det: allow[float-accumulation] one stage = one sequential task stream
                report.busy_cycles += node.cycles
                if number in forwards:
                    report.forward_tasks += 1
                    stashed[s] += 1
                    report.peak_stashed_activations = max(
                        report.peak_stashed_activations, stashed[s])
                else:
                    report.backward_tasks += 1
                    stashed[s] -= 1
        return PipelineReport(
            num_stages=len(stages),
            num_microbatches=self.num_microbatches,
            num_iterations=self.num_iterations,
            total_cycles=self.system.now,
            stages=reports,
            comm_cycles=comm_cycles,
        )


def partition_model(
    model: DNNModel,
    nodes: Sequence[int],
    num_microbatches: int,
    activation_bytes: float,
) -> list[PipelineStage]:
    """Partition a model's layers into balanced contiguous stages.

    Greedy split on cumulative compute: each stage takes layers until it
    reaches its share of the total.  Per-microbatch compute is the stage's
    minibatch compute divided by the microbatch count; backward combines
    the input- and weight-gradient passes.
    """
    if len(nodes) < 2:
        raise WorkloadError("need >= 2 stage nodes")
    if num_microbatches < 1:
        raise WorkloadError("num_microbatches must be >= 1")
    if activation_bytes <= 0:
        raise WorkloadError("activation_bytes must be positive")
    if len(nodes) > model.num_layers:
        raise WorkloadError(
            f"{len(nodes)} stages need at least that many layers "
            f"(model has {model.num_layers})"
        )

    total = model.total_compute_cycles
    share = total / len(nodes)
    stages = []
    layer_iter = iter(model.layers)
    current: list = []
    accumulated = 0.0
    remaining_layers = model.num_layers
    remaining_stages = len(nodes)
    for layer in model.layers:
        current.append(layer)
        accumulated += layer.total_compute_cycles
        remaining_layers -= 1
        boundary = accumulated >= share * (len(stages) + 1)
        must_close = remaining_layers == remaining_stages - len(stages) - 1
        if (boundary or must_close) and len(stages) < len(nodes) - 1:
            stages.append(current)
            current = []
    stages.append(current)

    out = []
    for idx, (node, layers) in enumerate(zip(nodes, stages)):
        fwd = sum(l.forward_cycles for l in layers) / num_microbatches
        bwd = sum(l.input_grad_cycles + l.weight_grad_cycles
                  for l in layers) / num_microbatches
        out.append(PipelineStage(
            index=idx,
            node=node,
            forward_cycles=fwd,
            backward_cycles=bwd,
            activation_bytes=activation_bytes / num_microbatches,
        ))
    return out
