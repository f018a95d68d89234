"""Tests for pipeline-parallel training (GPipe-style)."""

import pytest

from repro.config import (
    SimulationConfig,
    SystemConfig,
    TorusShape,
    paper_network_config,
)
from repro.config.units import KB, MB
from repro.errors import WorkloadError
from repro.models import mlp
from repro.system import System
from repro.topology import build_torus_topology
from repro.workload.pipeline import (
    PipelineStage,
    PipelineTrainingLoop,
    partition_model,
)

NET = paper_network_config()


def make_system(shape=TorusShape(1, 8, 1)) -> System:
    cfg = SystemConfig(horizontal_rings=2)
    topo = build_torus_topology(shape, NET, cfg)
    return System(topo, SimulationConfig(system=cfg, network=NET))


def uniform_stages(num_stages=4, fwd=50_000.0, bwd=100_000.0,
                   activation=256 * KB):
    return [PipelineStage(i, i, fwd, bwd, activation)
            for i in range(num_stages)]


class TestPipelineExecution:
    def test_completes(self):
        report = PipelineTrainingLoop(
            make_system(), uniform_stages(), num_microbatches=4
        ).run(max_events=10_000_000)
        assert report.total_cycles > 0
        assert report.num_stages == 4

    def test_all_tasks_executed(self):
        report = PipelineTrainingLoop(
            make_system(), uniform_stages(), num_microbatches=6
        ).run(max_events=10_000_000)
        for stage in report.stages:
            assert stage.forward_tasks == 6
            assert stage.backward_tasks == 6

    def test_more_microbatches_shrink_bubble(self):
        def bubble(m):
            report = PipelineTrainingLoop(
                make_system(), uniform_stages(), num_microbatches=m
            ).run(max_events=20_000_000)
            return report.bubble_fraction

        assert bubble(16) < bubble(4) < bubble(1 + 1)

    def test_bubble_approaches_gpipe_ideal(self):
        """With cheap communication the measured bubble lands near
        (S-1)/(M+S-1)."""
        report = PipelineTrainingLoop(
            make_system(), uniform_stages(activation=1 * KB),
            num_microbatches=8,
        ).run(max_events=20_000_000)
        assert report.bubble_fraction == pytest.approx(
            report.ideal_bubble_fraction, abs=0.05)

    def test_total_time_lower_bound(self):
        """Total time can never beat the zero-communication GPipe bound:
        (M + S - 1) microbatch slots through the slowest stage."""
        fwd, bwd, m = 50_000.0, 100_000.0, 8
        report = PipelineTrainingLoop(
            make_system(), uniform_stages(fwd=fwd, bwd=bwd),
            num_microbatches=m,
        ).run(max_events=20_000_000)
        bound = (m + 4 - 1) * (fwd + bwd)
        assert report.total_cycles >= bound

    def test_multiple_iterations(self):
        one = PipelineTrainingLoop(
            make_system(), uniform_stages(), num_microbatches=4,
            num_iterations=1,
        ).run(max_events=20_000_000)
        two = PipelineTrainingLoop(
            make_system(), uniform_stages(), num_microbatches=4,
            num_iterations=2,
        ).run(max_events=40_000_000)
        assert two.total_cycles > 1.8 * one.total_cycles

    def test_comm_cycles_recorded(self):
        report = PipelineTrainingLoop(
            make_system(), uniform_stages(activation=4 * MB),
            num_microbatches=2,
        ).run(max_events=20_000_000)
        assert report.comm_cycles > 0

    def test_heavier_activations_slow_the_pipeline(self):
        def total(activation):
            return PipelineTrainingLoop(
                make_system(), uniform_stages(activation=activation),
                num_microbatches=4,
            ).run(max_events=20_000_000).total_cycles

        assert total(8 * MB) > total(64 * KB)


class TestValidation:
    def test_needs_two_stages(self):
        with pytest.raises(WorkloadError):
            PipelineTrainingLoop(make_system(), uniform_stages(1), 4)

    def test_stage_indices_checked(self):
        stages = uniform_stages(3)
        stages[2] = PipelineStage(5, 2, 1.0, 1.0, 1024.0)
        with pytest.raises(WorkloadError):
            PipelineTrainingLoop(make_system(), stages, 4)

    def test_distinct_nodes_required(self):
        stages = [PipelineStage(0, 0, 1.0, 1.0, 1024.0),
                  PipelineStage(1, 0, 1.0, 1.0, 1024.0)]
        with pytest.raises(WorkloadError):
            PipelineTrainingLoop(make_system(), stages, 4)

    def test_microbatch_count_checked(self):
        with pytest.raises(WorkloadError):
            PipelineTrainingLoop(make_system(), uniform_stages(), 0)


class TestPartitionModel:
    def test_contiguous_balanced_partition(self):
        model = mlp(widths=(4096,) * 8)
        stages = partition_model(model, nodes=[0, 1, 2, 3],
                                 num_microbatches=4,
                                 activation_bytes=1 * MB)
        assert len(stages) == 4
        total_fwd = sum(s.forward_cycles for s in stages) * 4
        assert total_fwd == pytest.approx(
            sum(l.forward_cycles for l in model.layers))
        # Balanced: no stage more than 2x the mean.
        mean = total_fwd / 4 / 4
        assert all(s.forward_cycles < 2 * mean for s in stages)

    def test_microbatches_divide_compute_and_bytes(self):
        model = mlp(widths=(4096,) * 4)
        coarse = partition_model(model, [0, 1], 1, activation_bytes=1 * MB)
        fine = partition_model(model, [0, 1], 4, activation_bytes=1 * MB)
        assert fine[0].forward_cycles == pytest.approx(
            coarse[0].forward_cycles / 4)
        assert fine[0].activation_bytes == pytest.approx(
            coarse[0].activation_bytes / 4)

    def test_end_to_end_on_mlp(self):
        system = make_system()
        model = mlp(widths=(4096,) * 8, compute=system.config.compute)
        stages = partition_model(model, nodes=[0, 2, 4, 6],
                                 num_microbatches=4,
                                 activation_bytes=512 * KB)
        report = PipelineTrainingLoop(system, stages, 4).run(
            max_events=50_000_000)
        assert report.total_cycles > 0
        assert 0 <= report.bubble_fraction < 1

    def test_validation(self):
        model = mlp(widths=(128, 128))
        with pytest.raises(WorkloadError):
            partition_model(model, [0], 4, 1024.0)
        with pytest.raises(WorkloadError):
            partition_model(model, [0, 1, 2], 4, 1024.0)  # 3 stages, 2 layers
        with pytest.raises(WorkloadError):
            partition_model(model, [0, 1], 0, 1024.0)
        with pytest.raises(WorkloadError):
            partition_model(model, [0, 1], 4, 0.0)


class TestOneFOneB:
    def _run(self, schedule, microbatches=8, num_stages=4):
        from repro.workload.pipeline import PipelineSchedule as PS

        return PipelineTrainingLoop(
            make_system(), uniform_stages(num_stages),
            num_microbatches=microbatches,
            schedule=PS(schedule),
        ).run(max_events=30_000_000)

    def test_completes_all_tasks(self):
        report = self._run("1f1b")
        for stage in report.stages:
            assert stage.forward_tasks == 8
            assert stage.backward_tasks == 8

    def test_bounds_stashed_activations(self):
        """1F1B's point: stage 0 stashes at most S activations, while
        GPipe stashes all M."""
        gpipe = self._run("gpipe")
        onef = self._run("1f1b")
        assert gpipe.stages[0].peak_stashed_activations == 8
        assert onef.stages[0].peak_stashed_activations <= 4

    def test_throughput_comparable_to_gpipe(self):
        gpipe = self._run("gpipe", microbatches=16)
        onef = self._run("1f1b", microbatches=16)
        assert onef.total_cycles <= gpipe.total_cycles * 1.25

    def test_multi_iteration_1f1b(self):
        from repro.workload.pipeline import PipelineSchedule as PS

        report = PipelineTrainingLoop(
            make_system(), uniform_stages(), num_microbatches=4,
            num_iterations=2, schedule=PS.ONE_F_ONE_B,
        ).run(max_events=40_000_000)
        for stage in report.stages:
            assert stage.forward_tasks == 8  # 4 microbatches x 2 iterations
