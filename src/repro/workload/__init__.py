"""Workload layer: layers, models, parallelism, parser, training loop.

Pipeline parallelism lives in :mod:`repro.workload.pipeline`, imported
only by the runs that use it.
"""

from repro.workload.layer import NO_COMM, CommSpec, LayerSpec
from repro.workload.memory import (
    DEFAULT_HBM_BYTES,
    MemoryFootprint,
    estimate_footprint,
)
from repro.workload.model import DNNModel
from repro.workload.parallelism import (
    DATA_PARALLEL,
    MODEL_PARALLEL,
    TRANSFORMER_HYBRID,
    ParallelismKind,
    ParallelismStrategy,
    TrainingPhase,
    hybrid,
)
from repro.workload.parser import dump, dumps, load, loads
from repro.workload.training_loop import LayerReport, TrainingLoop, TrainingReport

__all__ = [
    "CommSpec",
    "DATA_PARALLEL",
    "DEFAULT_HBM_BYTES",
    "DNNModel",
    "MemoryFootprint",
    "LayerReport",
    "LayerSpec",
    "MODEL_PARALLEL",
    "NO_COMM",
    "ParallelismKind",
    "ParallelismStrategy",
    "TRANSFORMER_HYBRID",
    "TrainingLoop",
    "TrainingPhase",
    "TrainingReport",
    "dump",
    "dumps",
    "hybrid",
    "load",
    "loads",
    "estimate_footprint",
]
