"""Validation tests for the Table III / Table IV parameter dataclasses."""

import pytest

from repro.config import (
    AllToAllShape,
    CollectiveAlgorithm,
    ComputeConfig,
    LinkConfig,
    NetworkConfig,
    SystemConfig,
    TorusShape,
)
from repro.errors import ConfigError


def make_link(**kwargs):
    defaults = dict(bandwidth_gbps=25.0, latency_cycles=200.0, packet_size_bytes=256)
    defaults.update(kwargs)
    return LinkConfig(**defaults)


class TestLinkConfig:
    def test_effective_bandwidth_applies_efficiency(self):
        link = make_link(bandwidth_gbps=100.0, efficiency=0.5)
        assert link.effective_bytes_per_cycle() == pytest.approx(50.0)

    def test_serialization_without_quantum(self):
        link = make_link(bandwidth_gbps=100.0, efficiency=1.0,
                         message_quantum_bytes=None)
        assert link.serialization_cycles(1000.0) == pytest.approx(10.0)

    def test_serialization_with_quantum_overhead(self):
        link = make_link(bandwidth_gbps=100.0, efficiency=1.0,
                         message_quantum_bytes=512, quantum_overhead_cycles=10.0)
        # 1024 bytes = 2 quanta -> 10.24 wire cycles + 20 overhead.
        assert link.serialization_cycles(1024.0) == pytest.approx(10.24 + 20.0)

    def test_partial_quantum_rounds_up(self):
        link = make_link(bandwidth_gbps=100.0, efficiency=1.0,
                         message_quantum_bytes=512, quantum_overhead_cycles=10.0)
        assert link.serialization_cycles(513.0) == pytest.approx(5.13 + 20.0)

    def test_zero_size_message(self):
        assert make_link().serialization_cycles(0.0) == 0.0

    def test_scaled_multiplies_bandwidth(self):
        link = make_link(bandwidth_gbps=25.0)
        assert link.scaled(8.0).bandwidth_gbps == pytest.approx(200.0)
        assert link.scaled(8.0).latency_cycles == link.latency_cycles

    @pytest.mark.parametrize("kwargs", [
        dict(bandwidth_gbps=0.0),
        dict(latency_cycles=-1.0),
        dict(packet_size_bytes=0),
        dict(efficiency=0.0),
        dict(efficiency=1.5),
        dict(message_quantum_bytes=0),
        dict(quantum_overhead_cycles=-1.0),
    ])
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            make_link(**kwargs)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            make_link().scaled(0.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            make_link().serialization_cycles(-1.0)


class TestNetworkConfig:
    def test_flit_width_bytes(self):
        net = NetworkConfig(local_link=make_link(), package_link=make_link(),
                            flit_width_bits=1024)
        assert net.flit_width_bytes == 128

    @pytest.mark.parametrize("kwargs", [
        dict(flit_width_bits=0),
        dict(router_latency_cycles=-1.0),
        dict(vcs_per_vnet=0),
        dict(buffers_per_vc=0),
    ])
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            NetworkConfig(local_link=make_link(), package_link=make_link(), **kwargs)


class TestTorusShape:
    def test_npu_and_package_counts(self):
        shape = TorusShape(4, 4, 4)
        assert shape.num_npus == 64

    def test_str(self):
        assert str(TorusShape(2, 4, 8)) == "2x4x8"

    def test_one_dimensional(self):
        assert TorusShape(1, 8, 1).num_npus == 8

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_invalid_dimensions(self, dims):
        with pytest.raises(ConfigError):
            TorusShape(*dims)


class TestAllToAllShape:
    def test_counts(self):
        shape = AllToAllShape(4, 16)
        assert shape.num_npus == 64
        assert str(shape) == "4x16"

    def test_needs_two_packages(self):
        with pytest.raises(ConfigError):
            AllToAllShape(1, 1)

    def test_needs_positive_local(self):
        with pytest.raises(ConfigError):
            AllToAllShape(0, 4)


class TestSystemConfig:
    def test_defaults_valid(self):
        cfg = SystemConfig()
        assert cfg.algorithm is CollectiveAlgorithm.BASELINE

    @pytest.mark.parametrize("kwargs", [
        dict(local_rings=0),
        dict(global_switches=0),
        dict(endpoint_delay_cycles=-1.0),
        dict(preferred_set_splits=0),
        dict(dispatch_threshold=0),
        dict(dispatch_batch=0),
        dict(reduction_cycles_per_kb=-1.0),
    ])
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)


class TestComputeConfig:
    def test_scaled(self):
        cfg = ComputeConfig(compute_scale=1.0)
        assert cfg.scaled(4.0).compute_scale == pytest.approx(4.0)

    @pytest.mark.parametrize("kwargs", [
        dict(array_rows=0),
        dict(dram_bandwidth_gbps=0.0),
        dict(non_gemm_overhead_cycles=-1.0),
        dict(compute_scale=0.0),
        dict(bytes_per_element=0),
        dict(clock_ghz=0.0),
    ])
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            ComputeConfig(**kwargs)
