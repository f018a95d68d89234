"""Table I semantics: which training phases communicate per strategy."""

import pytest

from repro.dims import Dimension
from repro.errors import WorkloadError
from repro.workload.parallelism import (
    DATA_PARALLEL,
    MODEL_PARALLEL,
    TRANSFORMER_HYBRID,
    ParallelismKind,
    TrainingPhase,
    hybrid,
)


class TestTableI:
    """The communication matrix of Table I, verbatim."""

    def test_data_parallel_row(self):
        assert not DATA_PARALLEL.communicates(TrainingPhase.FORWARD)
        assert DATA_PARALLEL.communicates(TrainingPhase.WEIGHT_GRAD)
        assert not DATA_PARALLEL.communicates(TrainingPhase.INPUT_GRAD)

    def test_model_parallel_row(self):
        assert MODEL_PARALLEL.communicates(TrainingPhase.FORWARD)
        assert not MODEL_PARALLEL.communicates(TrainingPhase.WEIGHT_GRAD)
        assert MODEL_PARALLEL.communicates(TrainingPhase.INPUT_GRAD)

    def test_hybrid_row_partially_everything(self):
        for phase in TrainingPhase:
            assert TRANSFORMER_HYBRID.communicates(phase)


class TestScopes:
    def test_pure_strategies_span_all_dimensions(self):
        for phase in TrainingPhase:
            assert DATA_PARALLEL.scope(phase) is None
            assert MODEL_PARALLEL.scope(phase) is None

    def test_hybrid_weight_grads_use_data_dims(self):
        assert TRANSFORMER_HYBRID.scope(TrainingPhase.WEIGHT_GRAD) == (
            Dimension.LOCAL, Dimension.HORIZONTAL)

    def test_hybrid_activations_use_model_dims(self):
        assert TRANSFORMER_HYBRID.scope(TrainingPhase.FORWARD) == (
            Dimension.VERTICAL,)
        assert TRANSFORMER_HYBRID.scope(TrainingPhase.INPUT_GRAD) == (
            Dimension.VERTICAL,)


class TestBlocking:
    def test_weight_grads_overlap(self):
        for strategy in (DATA_PARALLEL, MODEL_PARALLEL, TRANSFORMER_HYBRID):
            assert not strategy.blocking(TrainingPhase.WEIGHT_GRAD)

    def test_activations_and_input_grads_block(self):
        for strategy in (DATA_PARALLEL, MODEL_PARALLEL, TRANSFORMER_HYBRID):
            assert strategy.blocking(TrainingPhase.FORWARD)
            assert strategy.blocking(TrainingPhase.INPUT_GRAD)


class TestValidation:
    def test_hybrid_requires_both_groups(self):
        with pytest.raises(WorkloadError):
            hybrid((Dimension.LOCAL,), ())

    def test_hybrid_rejects_overlapping_groups(self):
        with pytest.raises(WorkloadError):
            hybrid((Dimension.LOCAL,), (Dimension.LOCAL,))

    def test_kind_enum(self):
        assert TRANSFORMER_HYBRID.kind is ParallelismKind.HYBRID
        assert DATA_PARALLEL.kind is ParallelismKind.DATA
