"""Tests for GEMM shapes and conv/linear lowering."""

import pytest

from repro.compute.gemm import ConvSpec, GemmShape, LinearSpec
from repro.errors import WorkloadError


class TestGemmShape:
    def test_macs(self):
        assert GemmShape(2, 3, 4).macs == 24

    def test_bytes_touched(self):
        g = GemmShape(2, 3, 4)
        assert g.bytes_touched(4) == (6 + 12 + 8) * 4

    def test_backward_shapes(self):
        fwd = GemmShape(128, 64, 32)
        d_in, d_w = fwd.backward_shapes()
        assert d_in == GemmShape(128, 32, 64)
        assert d_w == GemmShape(64, 128, 32)

    def test_backward_preserves_macs(self):
        fwd = GemmShape(100, 50, 25)
        d_in, d_w = fwd.backward_shapes()
        assert d_in.macs == fwd.macs
        assert d_w.macs == fwd.macs

    def test_rejects_bad_dims(self):
        with pytest.raises(WorkloadError):
            GemmShape(0, 1, 1)


class TestConvSpec:
    def test_output_size(self):
        # ResNet stem: 224 -> 112 with 7x7/2 pad 3.
        conv = ConvSpec(3, 64, kernel=7, stride=2, in_size=224, padding=3)
        assert conv.out_size == 112

    def test_same_padding_3x3(self):
        conv = ConvSpec(64, 64, kernel=3, stride=1, in_size=56, padding=1)
        assert conv.out_size == 56

    def test_weight_count(self):
        conv = ConvSpec(64, 128, kernel=3, stride=1, in_size=56, padding=1)
        assert conv.weight_count == 64 * 128 * 9

    def test_im2col_gemm(self):
        conv = ConvSpec(64, 128, kernel=3, stride=1, in_size=56, padding=1)
        gemm = conv.gemm(batch=32)
        assert gemm.m == 32 * 56 * 56
        assert gemm.k == 64 * 9
        assert gemm.n == 128

    def test_activation_count(self):
        conv = ConvSpec(3, 64, kernel=7, stride=2, in_size=224, padding=3)
        assert conv.activation_count(2) == 2 * 64 * 112 * 112

    def test_empty_output_rejected(self):
        with pytest.raises(WorkloadError):
            ConvSpec(3, 8, kernel=7, stride=1, in_size=4)

    def test_bad_batch_rejected(self):
        conv = ConvSpec(3, 8, kernel=3, stride=1, in_size=8, padding=1)
        with pytest.raises(WorkloadError):
            conv.gemm(0)


class TestLinearSpec:
    def test_gemm(self):
        assert LinearSpec(2048, 1000).gemm(32) == GemmShape(32, 2048, 1000)

    def test_weight_count(self):
        assert LinearSpec(2048, 1000).weight_count == 2_048_000

    def test_rejects_bad_features(self):
        with pytest.raises(WorkloadError):
            LinearSpec(0, 10)
