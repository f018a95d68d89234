"""The Table IV presets must match the paper's published parameters."""

import pytest

from repro.config.parameters import CollectiveAlgorithm, SchedulingPolicy
from repro.config.presets import (
    PAPER_LOCAL_LINK,
    PAPER_PACKAGE_LINK,
    paper_network_config,
    paper_simulation_config,
    paper_system_config,
    symmetric_network_config,
)


class TestTableIVLinks:
    def test_intra_package_link(self):
        assert PAPER_LOCAL_LINK.bandwidth_gbps == 200.0
        assert PAPER_LOCAL_LINK.latency_cycles == 90.0
        assert PAPER_LOCAL_LINK.packet_size_bytes == 512
        assert PAPER_LOCAL_LINK.efficiency == pytest.approx(0.94)

    def test_inter_package_link(self):
        assert PAPER_PACKAGE_LINK.bandwidth_gbps == 25.0
        assert PAPER_PACKAGE_LINK.latency_cycles == 200.0
        assert PAPER_PACKAGE_LINK.packet_size_bytes == 256
        assert PAPER_PACKAGE_LINK.efficiency == pytest.approx(0.94)

    def test_local_is_8x_package_bandwidth(self):
        # Sec. V-C: "local link bandwidth within a package is assumed to
        # be 8x the inter-package links".
        ratio = PAPER_LOCAL_LINK.bandwidth_gbps / PAPER_PACKAGE_LINK.bandwidth_gbps
        assert ratio == pytest.approx(8.0)

    def test_message_quantum_matches_table_iv(self):
        # Table IV: message size 512 B, endpoint delay 10 cycles.
        assert PAPER_PACKAGE_LINK.message_quantum_bytes == 512
        assert PAPER_PACKAGE_LINK.quantum_overhead_cycles == 10.0


class TestNetworkPresets:
    def test_flit_and_router(self):
        net = paper_network_config()
        assert net.flit_width_bits == 1024
        assert net.router_latency_cycles == 1.0
        assert net.vcs_per_vnet == 50
        assert net.buffers_per_vc == 5000

    def test_local_bandwidth_scale(self):
        net = paper_network_config(local_bandwidth_scale=0.125)
        assert net.local_link.bandwidth_gbps == pytest.approx(25.0)

    def test_symmetric_config_equalizes_links(self):
        net = symmetric_network_config()
        assert net.local_link.bandwidth_gbps == net.package_link.bandwidth_gbps


class TestSystemPresets:
    def test_defaults(self):
        cfg = paper_system_config()
        assert cfg.scheduling_policy is SchedulingPolicy.LIFO
        assert cfg.local_rings == 2
        assert cfg.endpoint_delay_cycles == 10.0
        assert cfg.preferred_set_splits == 16
        # Sec. V-F: "issues 16 new chunks ... if there are fewer than 8".
        assert cfg.dispatch_threshold == 8
        assert cfg.dispatch_batch == 16

    def test_algorithm_passthrough(self):
        cfg = paper_system_config(algorithm=CollectiveAlgorithm.ENHANCED)
        assert cfg.algorithm is CollectiveAlgorithm.ENHANCED


class TestSimulationPreset:
    def test_bundle(self):
        cfg = paper_simulation_config(compute_scale=2.0)
        assert cfg.compute.compute_scale == pytest.approx(2.0)
        assert cfg.compute.array_rows == 256
        assert cfg.compute.array_cols == 256
        assert cfg.network is not None
