"""Tests for collective phase-plan construction (Sec. III-D)."""

import pytest

from repro.collectives.types import CollectiveOp, PhaseSpec, build_phase_plan
from repro.config.parameters import CollectiveAlgorithm
from repro.dims import Dimension
from repro.errors import CollectiveError

DIMS_3D = [(Dimension.LOCAL, 4), (Dimension.VERTICAL, 4), (Dimension.HORIZONTAL, 4)]


class TestAllReducePlans:
    def test_baseline_is_per_dimension_all_reduce(self):
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, DIMS_3D,
                                CollectiveAlgorithm.BASELINE)
        assert [p.op for p in plan] == [CollectiveOp.ALL_REDUCE] * 3
        assert [p.dim for p in plan] == [Dimension.LOCAL, Dimension.VERTICAL,
                                         Dimension.HORIZONTAL]
        assert all(p.size_fraction == 1.0 for p in plan)

    def test_enhanced_is_four_phase(self):
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, DIMS_3D,
                                CollectiveAlgorithm.ENHANCED)
        assert [p.op for p in plan] == [
            CollectiveOp.REDUCE_SCATTER,
            CollectiveOp.ALL_REDUCE,
            CollectiveOp.ALL_REDUCE,
            CollectiveOp.ALL_GATHER,
        ]
        assert plan[0].dim is Dimension.LOCAL
        assert plan[-1].dim is Dimension.LOCAL
        # Inter-package phases carry 1/M of the data (Sec. V-C: "reduce
        # the volume of data across inter-package links by 4x").
        assert plan[1].size_fraction == pytest.approx(0.25)
        assert plan[2].size_fraction == pytest.approx(0.25)

    def test_enhanced_without_local_dim_falls_back(self):
        dims = [(Dimension.VERTICAL, 8), (Dimension.HORIZONTAL, 8)]
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims,
                                CollectiveAlgorithm.ENHANCED)
        assert [p.op for p in plan] == [CollectiveOp.ALL_REDUCE] * 2

    def test_enhanced_single_dimension_falls_back(self):
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE,
                                [(Dimension.LOCAL, 4)],
                                CollectiveAlgorithm.ENHANCED)
        assert [p.op for p in plan] == [CollectiveOp.ALL_REDUCE]

    def test_size_one_dimensions_skipped(self):
        dims = [(Dimension.LOCAL, 1), (Dimension.VERTICAL, 8),
                (Dimension.HORIZONTAL, 1)]
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims)
        assert [p.dim for p in plan] == [Dimension.VERTICAL]

    def test_alltoall_dimension_plan(self):
        dims = [(Dimension.LOCAL, 4), (Dimension.ALLTOALL, 16)]
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims,
                                CollectiveAlgorithm.ENHANCED)
        assert [p.dim for p in plan] == [Dimension.LOCAL, Dimension.ALLTOALL,
                                         Dimension.LOCAL]


class TestReduceScatterPlans:
    def test_fractions_shrink(self):
        plan = build_phase_plan(CollectiveOp.REDUCE_SCATTER, DIMS_3D)
        assert [p.size_fraction for p in plan] == [
            pytest.approx(1.0), pytest.approx(0.25), pytest.approx(1 / 16)]

    def test_order_is_traversal_order(self):
        plan = build_phase_plan(CollectiveOp.REDUCE_SCATTER, DIMS_3D)
        assert [p.dim for p in plan] == [Dimension.LOCAL, Dimension.VERTICAL,
                                         Dimension.HORIZONTAL]


class TestAllGatherPlans:
    def test_reverse_order_growing_fractions(self):
        plan = build_phase_plan(CollectiveOp.ALL_GATHER, DIMS_3D)
        assert [p.dim for p in plan] == [Dimension.HORIZONTAL,
                                         Dimension.VERTICAL, Dimension.LOCAL]
        assert [p.size_fraction for p in plan] == [
            pytest.approx(1 / 16), pytest.approx(0.25), pytest.approx(1.0)]

    def test_inverse_of_reduce_scatter(self):
        rs = build_phase_plan(CollectiveOp.REDUCE_SCATTER, DIMS_3D)
        ag = build_phase_plan(CollectiveOp.ALL_GATHER, DIMS_3D)
        assert [p.dim for p in rs] == [p.dim for p in reversed(ag)]
        assert [p.size_fraction for p in rs] == [
            pytest.approx(p.size_fraction) for p in reversed(ag)]


class TestAllToAllPlans:
    def test_one_phase_per_dimension_full_fraction(self):
        plan = build_phase_plan(CollectiveOp.ALL_TO_ALL, DIMS_3D)
        assert [p.op for p in plan] == [CollectiveOp.ALL_TO_ALL] * 3
        assert all(p.size_fraction == 1.0 for p in plan)


class TestEdgeCases:
    def test_none_op_yields_empty_plan(self):
        assert build_phase_plan(CollectiveOp.NONE, DIMS_3D) == []

    def test_all_degenerate_dims_yield_empty_plan(self):
        dims = [(Dimension.LOCAL, 1), (Dimension.VERTICAL, 1)]
        assert build_phase_plan(CollectiveOp.ALL_REDUCE, dims) == []

    def test_phase_spec_rejects_none(self):
        with pytest.raises(CollectiveError):
            PhaseSpec(Dimension.LOCAL, CollectiveOp.NONE, 1.0)

    def test_phase_spec_rejects_bad_fraction(self):
        with pytest.raises(CollectiveError):
            PhaseSpec(Dimension.LOCAL, CollectiveOp.ALL_REDUCE, 0.0)
        with pytest.raises(CollectiveError):
            PhaseSpec(Dimension.LOCAL, CollectiveOp.ALL_REDUCE, 1.5)
