"""Tests for the Transformer, DLRM and MLP workload definitions."""

import pytest

from repro.collectives.types import CollectiveOp
from repro.errors import WorkloadError
from repro.models.dlrm import dlrm
from repro.models.mlp import mlp
from repro.models.transformer import NUM_ENCODER_LAYERS, transformer
from repro.workload.parallelism import ParallelismKind, TrainingPhase


class TestTransformer:
    def test_layer_structure(self):
        model = transformer()
        names = [l.name for l in model.layers]
        assert names[0] == "embedding"
        assert names[-1] == "output_proj"
        assert len([n for n in names if n.startswith("encoder")]) == \
            NUM_ENCODER_LAYERS

    def test_hybrid_strategy(self):
        assert transformer().strategy.kind is ParallelismKind.HYBRID

    def test_encoders_structurally_identical(self):
        """Fig. 13's premise: layers 1-6 are the same structurally."""
        model = transformer()
        encoders = [l for l in model.layers if l.name.startswith("encoder")]
        first = encoders[0]
        for enc in encoders[1:]:
            assert enc.forward_cycles == first.forward_cycles
            assert enc.forward_comm == first.forward_comm
            assert enc.weight_grad_comm == first.weight_grad_comm

    def test_embedding_has_no_communication(self):
        """Fig. 13 caption: some layers may not have communications."""
        model = transformer()
        emb = model.layer("embedding")
        assert not emb.forward_comm.active
        assert not emb.weight_grad_comm.active

    def test_encoder_comm_types(self):
        enc = transformer().layer("encoder1")
        assert enc.forward_comm.op is CollectiveOp.ALL_GATHER
        assert enc.input_grad_comm.op is CollectiveOp.ALL_REDUCE
        assert enc.weight_grad_comm.op is CollectiveOp.ALL_REDUCE

    def test_model_parallel_degree_shrinks_shards(self):
        whole = transformer(model_parallel_degree=1)
        halved = transformer(model_parallel_degree=2)
        assert halved.layer("encoder1").weight_grad_comm.size_bytes == \
            pytest.approx(whole.layer("encoder1").weight_grad_comm.size_bytes / 2)
        assert halved.layer("encoder1").forward_cycles < \
            whole.layer("encoder1").forward_cycles

    def test_bad_degree_rejected(self):
        with pytest.raises(WorkloadError):
            transformer(model_parallel_degree=3)


class TestDLRM:
    def test_structure(self):
        model = dlrm()
        names = [l.name for l in model.layers]
        assert names[0] == "bottom_mlp1"
        assert "embedding_exchange" in names
        assert names[-1] == "top_mlp4"

    def test_embedding_uses_all_to_all(self):
        exchange = dlrm().layer("embedding_exchange")
        assert exchange.forward_comm.op is CollectiveOp.ALL_TO_ALL
        assert exchange.input_grad_comm.op is CollectiveOp.ALL_TO_ALL

    def test_mlps_use_all_reduce(self):
        model = dlrm()
        for layer in model.layers:
            if layer.name != "embedding_exchange":
                assert layer.weight_grad_comm.op is CollectiveOp.ALL_REDUCE

    def test_exchange_size_scales_with_batch(self):
        small = dlrm(minibatch=128)
        large = dlrm(minibatch=512)
        assert large.layer("embedding_exchange").forward_comm.size_bytes == \
            pytest.approx(4 * small.layer("embedding_exchange").forward_comm.size_bytes)

    def test_hybrid_scopes(self):
        strategy = dlrm().strategy
        assert strategy.kind is ParallelismKind.HYBRID
        assert strategy.scope(TrainingPhase.FORWARD) == strategy.model_dims


class TestMLP:
    def test_default_structure(self):
        model = mlp()
        assert model.num_layers == 4
        assert model.strategy.kind is ParallelismKind.DATA

    def test_custom_widths(self):
        model = mlp(widths=(128, 64), input_features=32)
        assert model.num_layers == 2
        assert model.layer("fc1").weight_grad_comm.size_bytes == 32 * 128 * 4

    def test_empty_widths_rejected(self):
        with pytest.raises(WorkloadError):
            mlp(widths=())
