"""Tests for the ResNet-50 workload definition."""

import pytest

from repro.collectives.types import CollectiveOp
from repro.models.resnet50 import _architecture, resnet50, total_parameters
from repro.workload.parallelism import ParallelismKind


class TestArchitecture:
    def test_54_weighted_layers(self):
        """conv1 + 16 bottlenecks x 3 + 4 projections + fc = 54."""
        model = resnet50()
        assert model.num_layers == 54

    def test_parameter_count_matches_published(self):
        """ResNet-50 has ~25.5 M parameters (conv + fc, no BN/bias)."""
        assert total_parameters() == pytest.approx(25.5e6, rel=0.01)

    def test_stage_structure(self):
        names = [c.name for c in _architecture()]
        assert names[0] == "conv1"
        assert names.count("conv2_1_down") == 1
        # 3 + 4 + 6 + 3 bottlenecks, each with a/b/c convs.
        for stage, blocks in ((2, 3), (3, 4), (4, 6), (5, 3)):
            a_layers = [n for n in names if n.startswith(f"conv{stage}_")
                        and n.endswith("_a")]
            assert len(a_layers) == blocks

    def test_spatial_sizes_halve_per_stage(self):
        convs = {c.name: c.spec for c in _architecture()}
        assert convs["conv1"].out_size == 112
        assert convs["conv2_1_a"].in_size == 56
        assert convs["conv3_1_b"].out_size == 28
        assert convs["conv4_1_b"].out_size == 14
        assert convs["conv5_1_b"].out_size == 7

    def test_channel_progression(self):
        convs = {c.name: c.spec for c in _architecture()}
        assert convs["conv2_1_c"].out_channels == 256
        assert convs["conv3_1_c"].out_channels == 512
        assert convs["conv4_1_c"].out_channels == 1024
        assert convs["conv5_1_c"].out_channels == 2048


class TestWorkload:
    def test_data_parallel_weight_grad_only(self):
        model = resnet50()
        assert model.strategy.kind is ParallelismKind.DATA
        for layer in model.layers:
            assert layer.weight_grad_comm.op is CollectiveOp.ALL_REDUCE
            assert not layer.forward_comm.active
            assert not layer.input_grad_comm.active

    def test_comm_bytes_equal_parameter_bytes(self):
        model = resnet50(bytes_per_element=4)
        assert model.total_comm_bytes == pytest.approx(4 * total_parameters())

    def test_compute_cycles_positive_and_finite(self):
        model = resnet50()
        for layer in model.layers:
            assert layer.forward_cycles > 0
            assert layer.input_grad_cycles > 0
            assert layer.weight_grad_cycles > 0

    def test_minibatch_scales_compute_not_comm(self):
        small = resnet50(minibatch=16)
        large = resnet50(minibatch=64)
        assert large.total_compute_cycles > small.total_compute_cycles
        assert large.total_comm_bytes == pytest.approx(small.total_comm_bytes)

    def test_deep_layers_have_bigger_gradients(self):
        model = resnet50()
        conv2 = model.layer("conv2_1_b").weight_grad_comm.size_bytes
        conv5 = model.layer("conv5_1_b").weight_grad_comm.size_bytes
        assert conv5 == pytest.approx(conv2 * 64)
