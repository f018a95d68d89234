"""Analytical NPU compute model: GEMM shapes + systolic-array delays."""

from repro.compute.gemm import ConvSpec, GemmShape, LinearSpec
from repro.compute.systolic import ComputeEstimate, SystolicArrayModel

__all__ = [
    "ComputeEstimate",
    "ConvSpec",
    "GemmShape",
    "LinearSpec",
    "SystolicArrayModel",
]
