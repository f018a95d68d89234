"""GEMM shapes and the im2col lowering of convolutions.

The workload layer describes every DNN layer's compute as one or more
GEMMs (Sec. IV-A: the compute model "computes only the GEMM delay").
Convolutions lower to GEMMs via im2col: ``M = batch * out_h * out_w``,
``K = in_channels * kernel_h * kernel_w``, ``N = out_channels``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError


@dataclass(frozen=True)
class GemmShape:
    """An (M x K) @ (K x N) matrix multiply."""

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1 or self.n < 1:
            raise WorkloadError(f"GEMM dims must be >= 1: {self}")

    @property
    def macs(self) -> int:
        """Multiply-accumulate count."""
        return self.m * self.k * self.n

    def bytes_touched(self, bytes_per_element: int = 4) -> int:
        """Input + weight + output bytes (single pass, no reuse model)."""
        return (self.m * self.k + self.k * self.n + self.m * self.n) * bytes_per_element

    def backward_shapes(self) -> tuple["GemmShape", "GemmShape"]:
        """(input-gradient GEMM, weight-gradient GEMM) for a forward GEMM
        out[M,N] = in[M,K] @ w[K,N]:

        * d_in[M,K]  = d_out[M,N] @ w.T[N,K]   -> GEMM(M, N, K)
        * d_w[K,N]   = in.T[K,M] @ d_out[M,N]  -> GEMM(K, M, N)
        """
        return GemmShape(self.m, self.n, self.k), GemmShape(self.k, self.m, self.n)


@dataclass(frozen=True)
class ConvSpec:
    """A 2-D convolution layer, lowered to a GEMM with im2col."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    in_size: int  # spatial height == width
    padding: int = 0

    def __post_init__(self) -> None:
        if self.in_channels < 1 or self.out_channels < 1:
            raise WorkloadError(f"channels must be >= 1: {self}")
        if self.kernel < 1 or self.stride < 1 or self.in_size < 1:
            raise WorkloadError(f"kernel/stride/size must be >= 1: {self}")
        if self.padding < 0:
            raise WorkloadError(f"padding must be >= 0: {self}")
        if self.out_size < 1:
            raise WorkloadError(f"convolution produces empty output: {self}")

    @property
    def out_size(self) -> int:
        return (self.in_size + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def weight_count(self) -> int:
        return self.in_channels * self.out_channels * self.kernel * self.kernel

    def gemm(self, batch: int) -> GemmShape:
        if batch < 1:
            raise WorkloadError(f"batch must be >= 1, got {batch}")
        return GemmShape(
            m=batch * self.out_size * self.out_size,
            k=self.in_channels * self.kernel * self.kernel,
            n=self.out_channels,
        )

    def activation_count(self, batch: int) -> int:
        """Output activation element count for a minibatch."""
        return batch * self.out_channels * self.out_size * self.out_size


@dataclass(frozen=True)
class LinearSpec:
    """A fully connected layer (batch x in_features -> batch x out_features)."""

    in_features: int
    out_features: int

    def __post_init__(self) -> None:
        if self.in_features < 1 or self.out_features < 1:
            raise WorkloadError(f"features must be >= 1: {self}")

    @property
    def weight_count(self) -> int:
        return self.in_features * self.out_features

    def gemm(self, batch: int) -> GemmShape:
        if batch < 1:
            raise WorkloadError(f"batch must be >= 1, got {batch}")
        return GemmShape(m=batch, k=self.in_features, n=self.out_features)

    def activation_count(self, batch: int) -> int:
        return batch * self.out_features
