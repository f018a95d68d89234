"""Tests for layer descriptors and the DNN model container."""

import pytest

from repro.collectives.types import CollectiveOp
from repro.errors import WorkloadError
from repro.workload.layer import CommSpec, LayerSpec, NO_COMM
from repro.workload.model import DNNModel
from repro.workload.parallelism import DATA_PARALLEL


def make_layer(name="layer", **kwargs):
    defaults = dict(forward_cycles=100.0, input_grad_cycles=100.0,
                    weight_grad_cycles=100.0)
    defaults.update(kwargs)
    return LayerSpec(name=name, **defaults)


class TestCommSpec:
    def test_none_comm_inactive(self):
        assert not NO_COMM.active

    def test_active_comm(self):
        spec = CommSpec(CollectiveOp.ALL_REDUCE, 1024.0)
        assert spec.active

    def test_none_with_size_rejected(self):
        with pytest.raises(WorkloadError):
            CommSpec(CollectiveOp.NONE, 10.0)

    def test_op_without_size_rejected(self):
        with pytest.raises(WorkloadError):
            CommSpec(CollectiveOp.ALL_REDUCE, 0.0)


class TestLayerSpec:
    def test_totals(self):
        layer = make_layer(
            weight_grad_comm=CommSpec(CollectiveOp.ALL_REDUCE, 500.0))
        assert layer.total_compute_cycles == pytest.approx(300.0)
        assert layer.total_comm_bytes == pytest.approx(500.0)

    def test_rejects_empty_name(self):
        with pytest.raises(WorkloadError):
            make_layer(name="")

    def test_rejects_negative_compute(self):
        with pytest.raises(WorkloadError):
            make_layer(forward_cycles=-1.0)

    def test_rejects_negative_local_update(self):
        with pytest.raises(WorkloadError):
            make_layer(local_update_cycles_per_kb=-1.0)


class TestDNNModel:
    def test_aggregates(self):
        model = DNNModel(
            name="m",
            layers=(make_layer("a"), make_layer("b")),
            strategy=DATA_PARALLEL,
        )
        assert model.num_layers == 2
        assert model.total_compute_cycles == pytest.approx(600.0)

    def test_layer_lookup(self):
        model = DNNModel(name="m", layers=(make_layer("a"),),
                         strategy=DATA_PARALLEL)
        assert model.layer("a").name == "a"
        with pytest.raises(WorkloadError):
            model.layer("zzz")

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(WorkloadError):
            DNNModel(name="m", layers=(make_layer("a"), make_layer("a")),
                     strategy=DATA_PARALLEL)

    def test_empty_model_rejected(self):
        with pytest.raises(WorkloadError):
            DNNModel(name="m", layers=(), strategy=DATA_PARALLEL)

    def test_bad_minibatch_rejected(self):
        with pytest.raises(WorkloadError):
            DNNModel(name="m", layers=(make_layer(),), strategy=DATA_PARALLEL,
                     minibatch=0)
