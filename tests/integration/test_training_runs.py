"""Integration tests: full training simulations across workloads,
topologies and backends."""

import pytest

from repro.config.parameters import (
    AllToAllShape,
    CollectiveAlgorithm,
    SchedulingPolicy,
    TorusShape,
)
from repro.dims import Dimension
from repro.harness.runners import alltoall_platform, run_training, torus_platform
from repro.models.dlrm import dlrm
from repro.models.mlp import mlp
from repro.models.transformer import transformer
from repro.workload.parallelism import hybrid


class TestMLPRuns:
    def test_mlp_on_torus(self):
        platform = torus_platform(TorusShape(2, 2, 2),
                                  algorithm=CollectiveAlgorithm.ENHANCED)
        model = mlp(compute=platform.config.compute)
        report, system = run_training(model, platform, num_iterations=2)
        assert report.total_cycles > 0
        assert system.scheduler.idle
        assert len(report.iteration_ends) == 2

    def test_mlp_on_alltoall(self):
        platform = alltoall_platform(AllToAllShape(2, 4))
        model = mlp(compute=platform.config.compute)
        report, _ = run_training(model, platform, num_iterations=1)
        assert report.total_comm_cycles > 0

    def test_fifo_and_lifo_both_complete(self):
        for policy in SchedulingPolicy:
            platform = torus_platform(TorusShape(2, 2, 2),
                                      scheduling_policy=policy)
            model = mlp(compute=platform.config.compute)
            report, _ = run_training(model, platform, num_iterations=1)
            assert report.total_cycles > 0


class TestTransformerRuns:
    def test_hybrid_parallel_2x2x2(self):
        platform = torus_platform(TorusShape(2, 2, 2),
                                  algorithm=CollectiveAlgorithm.ENHANCED)
        model = transformer(compute=platform.config.compute,
                            model_parallel_degree=2)
        report, _ = run_training(model, platform, num_iterations=1)
        # Hybrid parallelism: encoders communicate in all three phases.
        enc = report.layers[1]
        assert enc.total_comm_cycles > 0
        assert sum(enc.comm_bytes.values()) > 0

    def test_encoder_comm_roughly_uniform(self):
        """Fig. 13: encoder layers have near-identical communication."""
        platform = torus_platform(TorusShape(2, 2, 2),
                                  algorithm=CollectiveAlgorithm.ENHANCED)
        model = transformer(compute=platform.config.compute,
                            model_parallel_degree=2)
        report, _ = run_training(model, platform, num_iterations=2)
        times = [l.total_comm_cycles for l in report.layers
                 if l.name.startswith("encoder")]
        spread = (max(times) - min(times)) / max(times)
        assert spread < 0.25

    def test_embedding_has_no_comm(self):
        platform = torus_platform(TorusShape(2, 2, 2))
        model = transformer(compute=platform.config.compute,
                            model_parallel_degree=2)
        report, _ = run_training(model, platform, num_iterations=1)
        assert report.layers[0].total_comm_cycles == 0.0


class TestDLRMRuns:
    def test_alltoall_exchange_on_alltoall_fabric(self):
        platform = alltoall_platform(AllToAllShape(2, 4))
        strategy = hybrid(data_dims=(Dimension.LOCAL,),
                          model_dims=(Dimension.ALLTOALL,))
        model = dlrm(compute=platform.config.compute, strategy=strategy)
        report, _ = run_training(model, platform, num_iterations=1)
        exchange = next(l for l in report.layers
                        if l.name == "embedding_exchange")
        assert exchange.total_comm_cycles > 0


class TestCrossConfig:
    def test_enhanced_not_slower_end_to_end(self):
        def total(algorithm):
            platform = torus_platform(TorusShape(2, 2, 2), algorithm=algorithm)
            model = mlp(compute=platform.config.compute)
            report, _ = run_training(model, platform, num_iterations=2)
            return report.total_cycles

        assert total(CollectiveAlgorithm.ENHANCED) <= \
            total(CollectiveAlgorithm.BASELINE) * 1.01

    def test_compute_scale_reduces_compute_time(self):
        def compute_total(scale):
            platform = torus_platform(TorusShape(2, 2, 2), compute_scale=scale)
            model = mlp(compute=platform.config.compute)
            report, _ = run_training(model, platform, num_iterations=1)
            return report.total_compute_cycles

        assert compute_total(2.0) == pytest.approx(compute_total(1.0) / 2)

    def test_run_determinism_across_full_stack(self):
        def run_once():
            platform = torus_platform(TorusShape(2, 2, 2))
            model = mlp(compute=platform.config.compute)
            report, _ = run_training(model, platform, num_iterations=2)
            return report.total_cycles

        assert run_once() == run_once()
