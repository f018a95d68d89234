"""Tests for the training loop: ordering, overlap and exposure accounting."""

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import SimulationConfig, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.config.units import MB
from repro.errors import WorkloadError
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology
from repro.workload.layer import CommSpec, LayerSpec
from repro.workload.model import DNNModel
from repro.workload.parallelism import (
    DATA_PARALLEL,
    MODEL_PARALLEL,
    ParallelismStrategy,
    TrainingPhase,
)
from repro.workload.training_loop import TrainingLoop

NET = paper_network_config()


def make_system(**kwargs) -> System:
    system_cfg = SystemConfig(**kwargs)
    topo = build_torus_topology(TorusShape(2, 2, 2), NET, system_cfg)
    return System(topo, SimulationConfig(system=system_cfg, network=NET))


def layer(name, fwd=100.0, ig=80.0, wg=60.0, wg_comm=None, fwd_comm=None,
          ig_comm=None):
    return LayerSpec(
        name=name,
        forward_cycles=fwd,
        input_grad_cycles=ig,
        weight_grad_cycles=wg,
        forward_comm=fwd_comm or CommSpec(),
        input_grad_comm=ig_comm or CommSpec(),
        weight_grad_comm=wg_comm or CommSpec(),
    )


class TestPureCompute:
    def test_total_time_is_sum_of_compute(self):
        model = DNNModel("nocomm", (layer("a"), layer("b")), DATA_PARALLEL)
        report = TrainingLoop(make_system(), model, num_iterations=1).run()
        assert report.total_cycles == pytest.approx(2 * 240.0)
        assert report.total_exposed_cycles == 0.0

    def test_iterations_scale_linearly(self):
        model = DNNModel("nocomm", (layer("a"),), DATA_PARALLEL)
        r1 = TrainingLoop(make_system(), model, num_iterations=1).run()
        r3 = TrainingLoop(make_system(), model, num_iterations=3).run()
        assert r3.total_cycles == pytest.approx(3 * r1.total_cycles)
        assert len(r3.iteration_ends) == 3

    def test_compute_attributed_per_phase(self):
        model = DNNModel("m", (layer("a", fwd=10, ig=20, wg=30),), DATA_PARALLEL)
        report = TrainingLoop(make_system(), model, num_iterations=2).run()
        layer_report = report.layers[0]
        assert layer_report.compute_cycles[TrainingPhase.FORWARD] == 20.0
        assert layer_report.compute_cycles[TrainingPhase.INPUT_GRAD] == 40.0
        assert layer_report.compute_cycles[TrainingPhase.WEIGHT_GRAD] == 60.0


class TestDataParallelOverlap:
    def _model(self, wg_bytes=1 * MB, fwd=50_000.0):
        wg = CommSpec(CollectiveOp.ALL_REDUCE, wg_bytes)
        return DNNModel("dp", (
            layer("l0", fwd=fwd, wg_comm=wg),
            layer("l1", fwd=fwd, wg_comm=wg),
            layer("l2", fwd=fwd, wg_comm=wg),
        ), DATA_PARALLEL)

    def test_weight_grad_comm_overlaps(self):
        """With generous compute, the deep layers' all-reduces hide fully;
        only the first layers — whose gradients are computed last, with no
        compute left to cover them (Sec. III-E) — expose a sliver."""
        model = self._model(wg_bytes=64 * 1024, fwd=500_000.0)
        report = TrainingLoop(make_system(), model, num_iterations=2).run()
        assert report.layers[2].exposed_cycles == 0.0
        assert report.total_exposed_cycles < 0.01 * report.total_cycles
        assert report.total_comm_cycles > 0.0

    def test_first_layer_comm_fully_exposed(self):
        """Sec. III-E: the first layer's weight-gradient communication is
        fully exposed — back-propagation issues it last."""
        model = self._model(wg_bytes=1 * MB, fwd=500_000.0)
        report = TrainingLoop(make_system(), model, num_iterations=1).run()
        first = report.layers[0]
        # Exposure is the collective's duration minus the only remaining
        # cover (the first layer's input-gradient compute).
        assert first.exposed_cycles > 0.0
        assert first.exposed_cycles <= first.comm_cycles[TrainingPhase.WEIGHT_GRAD]

    def test_fast_compute_exposes_comm(self):
        """With tiny compute the final layers' all-reduce must be exposed."""
        model = self._model(wg_bytes=8 * MB, fwd=10.0)
        report = TrainingLoop(make_system(), model, num_iterations=1).run()
        assert report.total_exposed_cycles > 0.0
        assert report.total_cycles > report.total_compute_cycles

    def test_exposure_shrinks_with_more_compute(self):
        fast = self._model(wg_bytes=4 * MB, fwd=10.0)
        slow = self._model(wg_bytes=4 * MB, fwd=2_000_000.0)
        r_fast = TrainingLoop(make_system(), fast, num_iterations=1).run()
        r_slow = TrainingLoop(make_system(), slow, num_iterations=1).run()
        assert r_slow.exposed_comm_ratio < r_fast.exposed_comm_ratio

    def test_raw_comm_recorded_per_layer(self):
        model = self._model()
        report = TrainingLoop(make_system(), model, num_iterations=2).run()
        for layer_report in report.layers:
            assert layer_report.comm_cycles[TrainingPhase.WEIGHT_GRAD] > 0
            assert layer_report.comm_cycles[TrainingPhase.FORWARD] == 0
            assert len(layer_report.sets) == 2  # one per iteration

    def test_second_iteration_waits_for_first_iterations_gradients(self):
        """One huge layer: iteration 2's forward must block on iteration
        1's weight-gradient collective."""
        wg = CommSpec(CollectiveOp.ALL_REDUCE, 32 * MB)
        model = DNNModel("big", (layer("only", fwd=10.0, ig=10.0, wg=10.0,
                                       wg_comm=wg),), DATA_PARALLEL)
        report = TrainingLoop(make_system(), model, num_iterations=2).run()
        assert report.layers[0].exposed_cycles > 0


class TestModelParallelBlocking:
    def test_forward_comm_blocks_next_layer(self):
        act = CommSpec(CollectiveOp.ALL_GATHER, 4 * MB)
        model = DNNModel("mp", (
            layer("l0", fwd=10.0, fwd_comm=act),
            layer("l1", fwd=10.0),
        ), MODEL_PARALLEL)
        report = TrainingLoop(make_system(), model, num_iterations=1).run()
        # The all-gather duration is fully exposed.
        assert report.layers[0].exposed_cycles > 0
        assert report.total_cycles > report.total_compute_cycles

    def test_blocking_is_asked_of_the_strategy(self, monkeypatch):
        """Table I's blocking rule lives in ParallelismStrategy alone:
        made non-blocking, an activation exchange overlaps the rest of
        the iteration and is awaited only at its end."""
        act = CommSpec(CollectiveOp.ALL_GATHER, 4 * MB)
        model = DNNModel("mp", (
            layer("l0", fwd=10.0, fwd_comm=act),
            layer("l1", fwd=10.0),
        ), MODEL_PARALLEL)
        blocking = TrainingLoop(make_system(), model, num_iterations=1).run()
        monkeypatch.setattr(ParallelismStrategy, "blocking", lambda self, phase: False)
        overlapped = TrainingLoop(make_system(), model, num_iterations=1).run()
        assert overlapped.total_cycles < blocking.total_cycles
        assert 0 < overlapped.layers[0].exposed_cycles < blocking.layers[0].exposed_cycles

    def test_model_parallel_ignores_weight_grad_comm(self):
        """Table I: model parallelism exchanges no weight gradients even
        if the layer lists one."""
        wg = CommSpec(CollectiveOp.ALL_REDUCE, 4 * MB)
        model = DNNModel("mp", (layer("l0", wg_comm=wg),), MODEL_PARALLEL)
        report = TrainingLoop(make_system(), model, num_iterations=1).run()
        assert report.total_comm_cycles == 0.0
        assert report.total_cycles == pytest.approx(240.0)

    def test_input_grad_comm_blocks(self):
        ig = CommSpec(CollectiveOp.ALL_REDUCE, 4 * MB)
        model = DNNModel("mp", (
            layer("l0", ig=10.0),
            layer("l1", ig=10.0, ig_comm=ig),
        ), MODEL_PARALLEL)
        report = TrainingLoop(make_system(), model, num_iterations=1).run()
        assert report.layers[1].exposed_cycles > 0


class TestReporting:
    def test_report_metadata(self):
        model = DNNModel("meta", (layer("a"),), DATA_PARALLEL)
        report = TrainingLoop(make_system(), model, num_iterations=2).run()
        assert report.model_name == "meta"
        assert report.num_iterations == 2
        assert [l.name for l in report.layers] == ["a"]

    def test_exposed_ratio_bounds(self):
        wg = CommSpec(CollectiveOp.ALL_REDUCE, 16 * MB)
        model = DNNModel("r", (layer("a", fwd=10.0, ig=10.0, wg=10.0,
                                     wg_comm=wg),), DATA_PARALLEL)
        report = TrainingLoop(make_system(), model, num_iterations=1).run()
        assert 0.0 < report.exposed_comm_ratio < 1.0

    def test_rejects_bad_iteration_count(self):
        model = DNNModel("m", (layer("a"),), DATA_PARALLEL)
        with pytest.raises(WorkloadError):
            TrainingLoop(make_system(), model, num_iterations=0)

    def test_determinism(self):
        wg = CommSpec(CollectiveOp.ALL_REDUCE, 2 * MB)
        model = DNNModel("det", (layer("a", wg_comm=wg),
                                 layer("b", wg_comm=wg)), DATA_PARALLEL)
        r1 = TrainingLoop(make_system(), model, num_iterations=2).run()
        r2 = TrainingLoop(make_system(), model, num_iterations=2).run()
        assert r1.total_cycles == r2.total_cycles
        assert r1.total_exposed_cycles == r2.total_exposed_cycles
