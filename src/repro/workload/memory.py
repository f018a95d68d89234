"""Per-NPU memory footprint estimation.

The co-design space includes memory capacity: Table II ties chunk sizing
to "Storage Element Size (Area/Power)", and parallelization strategy
determines what each NPU must hold.  This module estimates the resident
bytes per NPU for a workload + strategy + system size and validates it
against an HBM capacity budget:

* parameters and gradients — replicated under data parallelism, sharded
  1/degree under model parallelism (hybrid: sharded over the
  model-parallel degree);
* optimizer state — ``optimizer_words`` words per parameter (2 for Adam
  moments), sharded like the parameters;
* activations — scale with the local minibatch and are estimated from
  each layer's communication sizes or supplied explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.units import GB
from repro.errors import WorkloadError
from repro.workload.model import DNNModel
from repro.workload.parallelism import ParallelismKind


@dataclass(frozen=True)
class MemoryFootprint:
    """Resident bytes per NPU, by category."""

    parameter_bytes: float
    gradient_bytes: float
    optimizer_bytes: float
    activation_bytes: float

    @property
    def total_bytes(self) -> float:
        return (self.parameter_bytes + self.gradient_bytes
                + self.optimizer_bytes + self.activation_bytes)

    def fits(self, capacity_bytes: float) -> bool:
        if capacity_bytes <= 0:
            raise WorkloadError("capacity must be positive")
        return self.total_bytes <= capacity_bytes

    def utilization(self, capacity_bytes: float) -> float:
        if capacity_bytes <= 0:
            raise WorkloadError("capacity must be positive")
        return self.total_bytes / capacity_bytes


#: HBM capacity of a TPU-class NPU (per module).
DEFAULT_HBM_BYTES = 32 * GB


def estimate_footprint(
    model: DNNModel,
    model_parallel_degree: int = 1,
    optimizer_words: int = 2,
    activation_bytes: float | None = None,
    bytes_per_element: int = 4,
) -> MemoryFootprint:
    """Estimate one NPU's resident memory for ``model``.

    Parameter bytes are taken from the layers' weight-gradient
    communication sizes (= parameter bytes under our model builders);
    with pure model parallelism they are already per-shard, so
    ``model_parallel_degree`` only divides them for DATA-parallel
    descriptions being re-sharded.  ``activation_bytes`` overrides the
    activation estimate (sum of forward communication sizes, or 10% of
    parameters when the model has no activation exchanges).
    """
    if model_parallel_degree < 1:
        raise WorkloadError("model_parallel_degree must be >= 1")
    if optimizer_words < 0:
        raise WorkloadError("optimizer_words must be >= 0")

    param_bytes = sum(l.weight_grad_comm.size_bytes for l in model.layers)
    if param_bytes == 0:
        # Model-parallel descriptions may carry no weight-gradient comm;
        # fall back to compute-free structural estimate via activations.
        param_bytes = sum(l.total_comm_bytes for l in model.layers)
    if model.strategy.kind is ParallelismKind.DATA:
        shard_bytes = param_bytes / model_parallel_degree
    else:
        # Builders already size hybrid/model-parallel layers per shard.
        shard_bytes = param_bytes

    if activation_bytes is None:
        fwd = sum(l.forward_comm.size_bytes for l in model.layers)
        activation_bytes = fwd if fwd > 0 else 0.1 * shard_bytes

    optimizer_bytes = shard_bytes / bytes_per_element * optimizer_words * 4
    return MemoryFootprint(
        parameter_bytes=shard_bytes,
        gradient_bytes=shard_bytes,
        optimizer_bytes=optimizer_bytes,
        activation_bytes=float(activation_bytes),
    )
