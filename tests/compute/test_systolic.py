"""Tests for the analytical systolic-array compute model."""

import pytest

from repro.compute.gemm import GemmShape
from repro.compute.systolic import SystolicArrayModel
from repro.config.parameters import ComputeConfig
from repro.errors import WorkloadError


def make_model(**kwargs) -> SystolicArrayModel:
    defaults = dict(array_rows=256, array_cols=256,
                    dram_bandwidth_gbps=3600.0, non_gemm_overhead_cycles=0.0,
                    clock_ghz=1.0)
    defaults.update(kwargs)
    return SystolicArrayModel(ComputeConfig(**defaults))


class TestGemmCycles:
    def test_streaming_bound(self):
        model = make_model()
        g = GemmShape(1024, 512, 1024)
        fill = 2 * 256 + 256 - 2
        assert model.gemm_cycles(g) == fill + g.macs // (256 * 256)

    def test_fill_drain_floor(self):
        model = make_model()
        tiny = GemmShape(1, 1, 1)
        assert model.gemm_cycles(tiny) == pytest.approx(2 * 256 + 256 - 2 + 1)

    def test_array_size_scales_throughput(self):
        big = make_model(array_rows=256, array_cols=256)
        small = make_model(array_rows=64, array_cols=64)
        g = GemmShape(4096, 1024, 4096)
        assert small.gemm_cycles(g) > big.gemm_cycles(g)


class TestRoofline:
    def test_dram_bound_layer_stalls(self):
        model = make_model(dram_bandwidth_gbps=1.0)
        g = GemmShape(256, 16, 256)  # tiny compute, big relative traffic
        est = model.estimate(g)
        assert est.dram_stall_cycles > 0

    def test_compute_bound_layer_no_stall(self):
        model = make_model(dram_bandwidth_gbps=100_000.0)
        g = GemmShape(4096, 4096, 4096)
        est = model.estimate(g)
        assert est.dram_stall_cycles == 0.0

    def test_io_override_reduces_stall(self):
        model = make_model(dram_bandwidth_gbps=10.0)
        g = GemmShape(10_000, 576, 64)  # im2col-expanded conv
        inflated = model.estimate(g)
        real = model.estimate(g, io_bytes=g.bytes_touched() / 9)
        assert real.dram_stall_cycles < inflated.dram_stall_cycles

    def test_total_is_sum_of_parts(self):
        model = make_model(non_gemm_overhead_cycles=123.0)
        est = model.estimate(GemmShape(512, 512, 512))
        assert est.total_cycles == pytest.approx(
            est.gemm_cycles + est.dram_stall_cycles + est.overhead_cycles)
        assert est.overhead_cycles == pytest.approx(123.0)


class TestScaling:
    def test_compute_scale_divides_everything(self):
        base = make_model()
        fast = make_model(compute_scale=4.0)
        g = GemmShape(2048, 1024, 2048)
        assert fast.layer_cycles(g) == pytest.approx(base.layer_cycles(g) / 4)

    def test_clock_divides_gemm_but_not_dram(self):
        slow = make_model(clock_ghz=1.0, dram_bandwidth_gbps=1.0)
        fast = make_model(clock_ghz=2.0, dram_bandwidth_gbps=1.0)
        g = GemmShape(256, 16, 256)
        # DRAM-bound either way: total dominated by the same stall+gemm sum.
        assert fast.estimate(g).gemm_cycles == pytest.approx(
            slow.estimate(g).gemm_cycles / 2)
        assert fast.estimate(g).total_cycles == pytest.approx(
            slow.estimate(g).total_cycles)

    def test_multi_gemm_layers_accumulate(self):
        model = make_model()
        g = GemmShape(1024, 1024, 1024)
        single = model.layer_cycles(g)
        double = model.layer_cycles([g, g])
        assert double == pytest.approx(2 * single)


class TestValidation:
    def test_empty_shape_list_rejected(self):
        with pytest.raises(WorkloadError):
            make_model().estimate([])

    def test_negative_io_rejected(self):
        with pytest.raises(WorkloadError):
            make_model().io_cycles(-1.0)
