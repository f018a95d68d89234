"""Tests for the shared experiment runners and the cheap figure harnesses."""

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import AllToAllShape, TorusShape
from repro.config.units import KB, MB
from repro.harness import bandwidth_test, fig09, fig10, fig11, fig12
from repro.harness.runners import (
    CollectiveResult,
    Sweep,
    alltoall_platform,
    run_collective,
    run_sweep,
    run_training,
    torus_platform,
)
from repro.models.mlp import mlp
from repro.parallel.executor import ParallelExecutor, set_default_executor


class TestPlatformBuilders:
    def test_torus_platform_builds(self):
        platform = torus_platform(TorusShape(2, 2, 2))
        system = platform.build_system()
        assert system.topology.num_npus == 8

    def test_symmetric_flag_equalizes_links(self):
        platform = torus_platform(TorusShape(2, 2, 2), symmetric=True)
        net = platform.config.network
        assert net.local_link.bandwidth_gbps == net.package_link.bandwidth_gbps

    def test_ring_counts_forwarded(self):
        platform = torus_platform(TorusShape(1, 8, 1), horizontal_rings=4)
        system = platform.build_system()
        from repro.dims import Dimension
        groups = system.topology.fabric.groups(Dimension.HORIZONTAL)
        assert {len(channels) for channels in groups.values()} == {8}

    def test_alltoall_platform_builds(self):
        platform = alltoall_platform(AllToAllShape(1, 8), global_switches=7)
        system = platform.build_system()
        assert system.topology.num_npus == 8

    def test_fresh_system_per_build(self):
        platform = torus_platform(TorusShape(2, 2, 2))
        assert platform.build_system() is not platform.build_system()


class TestRunners:
    def test_run_collective_result_fields(self):
        platform = torus_platform(TorusShape(2, 2, 2))
        result = run_collective(platform, CollectiveOp.ALL_REDUCE, 256 * KB)
        assert result.duration_cycles > 0
        assert result.num_npus == 8
        assert result.op is CollectiveOp.ALL_REDUCE

    def test_sweep_is_monotone_in_size(self):
        sweep = run_sweep(
            {"torus": lambda: torus_platform(TorusShape(2, 2, 2))},
            CollectiveOp.ALL_REDUCE,
            sizes=(256 * KB, 1 * MB, 4 * MB),
        )
        durations = [r.duration_cycles for r in sweep.series["torus"]]
        assert durations == sorted(durations)
        assert sweep.complete
        assert [row["size_bytes"] for row in sweep.rows()] == sweep.sizes

    def test_run_training_returns_report_and_system(self):
        platform = torus_platform(TorusShape(2, 2, 2))
        model = mlp(compute=platform.config.compute)
        report, system = run_training(model, platform, num_iterations=1)
        assert report.total_cycles > 0
        assert system.scheduler.idle


class TestFigureHarnesses:
    def test_fig09_rows(self):
        result = fig09.run(sizes=(64 * KB,), collective=CollectiveOp.ALL_REDUCE)
        rows = result.rows()
        assert len(rows) == 1
        assert rows[0]["alltoall_cycles"] > 0
        assert rows[0]["torus_cycles"] > 0

    def test_fig12_breakdown_structure(self):
        result = fig12.run(size_bytes=512 * KB,
                           shapes=(TorusShape(2, 2, 2), TorusShape(2, 4, 2)))
        assert list(result.series) == ["torus-2x2x2", "torus-2x4x2"]
        assert [r.num_npus for (r,) in result.series.values()] == [8, 16]
        assert all(r.label == name for name, (r,) in result.series.items())
        assert all(r.breakdown.rows() for (r,) in result.series.values())


class TestSweep:
    def _result(self, cycles):
        from repro.system.stats import DelayBreakdown

        return CollectiveResult(
            label="p", op=CollectiveOp.ALL_REDUCE, size_bytes=1.0,
            duration_cycles=cycles, breakdown=DelayBreakdown(), num_npus=8)

    def test_rows_name_every_series_per_size(self):
        sweep = Sweep(CollectiveOp.ALL_REDUCE, [1.0, 2.0], {
            "a": [self._result(10.0), self._result(20.0)],
            "b": [self._result(30.0), self._result(40.0)]})
        assert sweep.complete
        assert sweep.rows() == [
            {"size_bytes": 1.0, "a_cycles": 10.0, "b_cycles": 30.0},
            {"size_bytes": 2.0, "a_cycles": 20.0, "b_cycles": 40.0}]

    def test_quarantined_point_is_a_gap(self):
        sweep = Sweep(CollectiveOp.ALL_REDUCE, [1.0, 2.0], {
            "a": [None, self._result(20.0)],
            "b": [self._result(30.0), self._result(40.0)]})
        assert not sweep.complete
        assert sweep.rows()[0] == {"size_bytes": 1.0, "a_cycles": None,
                                   "b_cycles": 30.0}


class _CountingExecutor(ParallelExecutor):
    """Counts the batches a harness submits."""

    def __init__(self):
        super().__init__(jobs=1)
        self.batches = []

    def run_points(self, points):
        self.batches.append(len(points))
        return super().run_points(points)


@pytest.fixture
def counting_executor():
    executor = _CountingExecutor()
    set_default_executor(executor)
    yield executor
    set_default_executor(None)


class TestOneBatchPerSweep:
    """Every Fig. 9-12 run and the bandwidth test submit all of their
    points as one executor batch."""

    def test_fig09(self, counting_executor):
        fig09.run(sizes=(64 * KB, 128 * KB))
        assert counting_executor.batches == [4]

    def test_fig10(self, counting_executor):
        fig10.run(sizes=(64 * KB,),
                  shapes=(TorusShape(1, 8, 8), TorusShape(4, 4, 4)))
        assert counting_executor.batches == [2]

    def test_fig11(self, counting_executor):
        fig11.run(sizes=(64 * KB,))
        assert counting_executor.batches == [3]

    def test_fig12(self, counting_executor):
        fig12.run(size_bytes=64 * KB)
        assert counting_executor.batches == [4]

    def test_bandwidth_measure(self, counting_executor):
        points = bandwidth_test.measure(
            lambda: torus_platform(TorusShape(2, 2, 2)),
            CollectiveOp.ALL_REDUCE, [64 * KB, 128 * KB])
        assert counting_executor.batches == [2]
        assert [p.size_bytes for p in points] == [64 * KB, 128 * KB]
