"""Analytical NPU compute model: GEMM shapes + systolic-array delays."""
