"""Tests for the shared experiment runners and the cheap figure harnesses."""

from repro.collectives import CollectiveOp
from repro.config import (
    AllToAllShape,
    TorusShape,
)
from repro.config.units import KB, MB
from repro.harness import (
    alltoall_platform,
    fig09,
    fig12,
    run_collective,
    run_training,
    sweep_collective,
    torus_platform,
)
from repro.models import mlp


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
        results = sweep_collective(
            lambda: torus_platform(TorusShape(2, 2, 2)),
            CollectiveOp.ALL_REDUCE,
            sizes=(256 * KB, 1 * MB, 4 * MB),
        )
        durations = [r.duration_cycles for r in results]
        assert durations == sorted(durations)

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
        totals = result.total_rows()
        assert [r["modules"] for r in totals] == [8, 16]
        breakdowns = result.breakdown_rows()
        assert set(breakdowns) == {"torus-2x2x2", "torus-2x4x2"}
