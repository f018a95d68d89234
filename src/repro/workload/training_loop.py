"""The workload layer's training loop (Sec. IV-A).

Drives ``num_iterations`` of synchronous training over a
:class:`repro.system.sys_layer.System` as a :class:`repro.workload.graph.WorkloadGraph`
on one compute stream:

* **Forward pass** — layer by layer; before computing layer *i* the loop
  must wait for that layer's weight-gradient collective from the previous
  iteration (this wait is the *exposed* communication of Fig. 15);
  model/hybrid-parallel layers then exchange output activations, which
  blocks the next layer.
* **Back-propagation** — from the last layer backwards; each layer
  computes its weight gradient, issues the weight-gradient collective
  *asynchronously* (overlapping with the remaining back-propagation,
  Sec. III-E), computes its input gradient, and — for model/hybrid
  parallelism — blocks on the input-gradient exchange before moving on.

Which phases communicate, over which dimensions and whether they block
is Table I, asked of the model's :class:`ParallelismStrategy`.  A final
join waits out the last iteration's weight-gradient collectives in layer
order, charging the waits as exposed communication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import WorkloadError
from repro.system.collective_set import CollectiveSet
from repro.system.sys_layer import System
from repro.workload.graph import WorkloadGraph
from repro.workload.layer import CommSpec
from repro.workload.model import DNNModel
from repro.workload.parallelism import TrainingPhase


@dataclass
class LayerReport:
    """Per-layer accounting across the whole run (all iterations)."""

    name: str
    compute_cycles: dict[TrainingPhase, float] = field(
        default_factory=lambda: {p: 0.0 for p in TrainingPhase}
    )
    comm_cycles: dict[TrainingPhase, float] = field(
        default_factory=lambda: {p: 0.0 for p in TrainingPhase}
    )
    comm_bytes: dict[TrainingPhase, float] = field(
        default_factory=lambda: {p: 0.0 for p in TrainingPhase}
    )
    exposed_cycles: float = 0.0
    sets: list[CollectiveSet] = field(default_factory=list)

    @property
    def total_compute_cycles(self) -> float:
        return sum(self.compute_cycles.values())

    @property
    def total_comm_cycles(self) -> float:
        """Raw communication time (Figs. 13/14): the sum of this layer's
        collective durations, whether or not they overlapped compute."""
        return sum(self.comm_cycles.values())


@dataclass
class TrainingReport:
    """The run-level result returned by :meth:`TrainingLoop.run`."""

    model_name: str
    num_iterations: int
    total_cycles: float
    layers: list[LayerReport]
    iteration_ends: list[float]

    @property
    def total_compute_cycles(self) -> float:
        return sum(layer.total_compute_cycles for layer in self.layers)

    @property
    def total_exposed_cycles(self) -> float:
        return sum(layer.exposed_cycles for layer in self.layers)

    @property
    def total_comm_cycles(self) -> float:
        return sum(layer.total_comm_cycles for layer in self.layers)

    @property
    def exposed_comm_ratio(self) -> float:
        """Exposed communication share of busy time (Figs. 17/18)."""
        busy = self.total_compute_cycles + self.total_exposed_cycles
        return self.total_exposed_cycles / busy if busy else 0.0


class TrainingLoop:
    """Runs a DNN training workload on a simulated platform."""

    def __init__(self, system: System, model: DNNModel, num_iterations: int = 1):
        if num_iterations < 1:
            raise WorkloadError(f"num_iterations must be >= 1, got {num_iterations}")
        self.system = system
        self.model = model
        self.num_iterations = num_iterations

    def run(self, max_events: Optional[int] = None) -> TrainingReport:
        """Run all iterations to completion and return the report."""
        graph = WorkloadGraph(self.system)
        layers, strategy = self.model.layers, self.model.strategy
        reports = [LayerReport(layer.name) for layer in layers]
        issued: list[tuple[int, int, TrainingPhase]] = []
        # Per layer, the overlapped collectives its next forward pass awaits.
        pending: dict[int, list[int]] = {}

        def step(index: int, phase: TrainingPhase, cycles: float, comm: CommSpec,
                 deps: list[int]) -> list[int]:
            """Layer ``index``'s ``phase`` compute and collective; returns
            what the stream's next compute node depends on."""
            reports[index].compute_cycles[phase] += cycles
            node = graph.compute(cycles, 0, deps)
            if not comm.active or not strategy.communicates(phase):
                return [node]
            layer = layers[index]
            collective = graph.collective(
                [node], index, comm.op, comm.size_bytes, scope=strategy.scope(phase),
                layer_id=index, name=f"{layer.name}/{phase.value}",
                reduction_cycles_per_kb=layer.local_update_cycles_per_kb)
            issued.append((collective, index, phase))
            reports[index].comm_bytes[phase] += comm.size_bytes
            if strategy.blocking(phase):
                return [node, collective]
            pending.setdefault(index, []).append(collective)
            return [node]

        follow: list[int] = []
        ends = []
        for _ in range(self.num_iterations):
            for index, layer in enumerate(layers):
                follow = step(index, TrainingPhase.FORWARD, layer.forward_cycles,
                              layer.forward_comm, follow + pending.pop(index, []))
            for index in reversed(range(len(layers))):
                layer = layers[index]
                follow = step(index, TrainingPhase.WEIGHT_GRAD, layer.weight_grad_cycles,
                              layer.weight_grad_comm, follow)
                follow = step(index, TrainingPhase.INPUT_GRAD, layer.input_grad_cycles,
                              layer.input_grad_comm, follow)
            ends.append(follow[-1])
        graph.join(follow + [c for index in sorted(pending) for c in pending[index]])
        graph.run(max_events)

        # A layer's collectives of one phase complete in issue order: each
        # waits, through the stream, on the previous iteration's.
        for collective, index, phase in issued:
            handle = graph.nodes[collective].handle
            reports[index].sets.append(handle)
            reports[index].comm_cycles[phase] += handle.duration_cycles
        for index, report in enumerate(reports):
            report.exposed_cycles = graph.exposed.get(index, 0.0)
        return TrainingReport(
            model_name=self.model.name,
            num_iterations=self.num_iterations,
            total_cycles=self.system.now,
            layers=reports,
            iteration_ends=[graph.nodes[end].done_at for end in ends],
        )
