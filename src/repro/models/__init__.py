"""Predefined DNN training workloads used in the paper's evaluation."""

from repro.models.dlrm import DLRM_HYBRID, dlrm
from repro.models.mlp import mlp
from repro.models.resnet50 import resnet50, total_parameters
from repro.models.transformer import transformer

__all__ = [
    "DLRM_HYBRID",
    "dlrm",
    "mlp",
    "resnet50",
    "total_parameters",
    "transformer",
]
