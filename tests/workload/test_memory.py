"""Tests for the per-NPU memory footprint estimator."""

import pytest

from repro.config.units import GB, MB
from repro.errors import WorkloadError
from repro.models.mlp import mlp
from repro.models.resnet50 import resnet50
from repro.models.transformer import transformer
from repro.workload.memory import DEFAULT_HBM_BYTES, estimate_footprint


class TestEstimates:
    def test_resnet50_data_parallel(self):
        """25.5 M fp32 parameters: params+grads+Adam state = 4x ~102 MB,
        plus activations."""
        footprint = estimate_footprint(resnet50())
        assert footprint.parameter_bytes == pytest.approx(102e6, rel=0.02)
        assert footprint.gradient_bytes == footprint.parameter_bytes
        assert footprint.optimizer_bytes == pytest.approx(
            2 * footprint.parameter_bytes)
        assert footprint.total_bytes < 1 * GB

    def test_data_parallel_sharding_divides(self):
        whole = estimate_footprint(resnet50(), model_parallel_degree=1)
        sharded = estimate_footprint(resnet50(), model_parallel_degree=4)
        assert sharded.parameter_bytes == pytest.approx(
            whole.parameter_bytes / 4)

    def test_hybrid_layers_already_sharded(self):
        """Transformer builders emit per-shard sizes; degree must not
        double-count."""
        model = transformer(model_parallel_degree=2)
        footprint = estimate_footprint(model)
        per_layer = model.layer("encoder1").weight_grad_comm.size_bytes
        assert footprint.parameter_bytes >= per_layer

    def test_activation_override(self):
        footprint = estimate_footprint(mlp(), activation_bytes=123 * MB)
        assert footprint.activation_bytes == 123 * MB

    def test_optimizer_words(self):
        sgd = estimate_footprint(mlp(), optimizer_words=0)
        adam = estimate_footprint(mlp(), optimizer_words=2)
        assert sgd.optimizer_bytes == 0.0
        assert adam.optimizer_bytes > 0.0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            estimate_footprint(mlp(), model_parallel_degree=0)
        with pytest.raises(WorkloadError):
            estimate_footprint(mlp(), optimizer_words=-1)


class TestCapacityChecks:
    def test_resnet_fits_default_hbm(self):
        assert estimate_footprint(resnet50()).fits(DEFAULT_HBM_BYTES)

    def test_undersized_hbm_rejected(self):
        assert not estimate_footprint(resnet50()).fits(100 * MB)

    def test_utilization(self):
        footprint = estimate_footprint(resnet50())
        util = footprint.utilization(DEFAULT_HBM_BYTES)
        assert 0 < util < 1
        assert footprint.utilization(footprint.total_bytes) == pytest.approx(1.0)

    def test_bad_capacity(self):
        footprint = estimate_footprint(mlp())
        with pytest.raises(WorkloadError):
            footprint.fits(0.0)
