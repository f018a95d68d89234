"""Tests for report formatting helpers."""

import pytest

from repro.analysis.report import RunSummary, format_breakdown, format_layer_table, layer_rows
from repro.collectives.types import CollectiveOp
from repro.config.parameters import SimulationConfig, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.config.units import MB
from repro.system.stats import DelayBreakdown
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology
from repro.workload.layer import CommSpec, LayerSpec
from repro.workload.model import DNNModel
from repro.workload.parallelism import DATA_PARALLEL
from repro.workload.training_loop import TrainingLoop


@pytest.fixture(scope="module")
def report():
    net = paper_network_config()
    system_cfg = SystemConfig()
    topo = build_torus_topology(TorusShape(2, 2, 2), net, system_cfg)
    system = System(topo, SimulationConfig(system=system_cfg, network=net))
    model = DNNModel("demo", (
        LayerSpec("a", 1000.0, 800.0, 600.0,
                  weight_grad_comm=CommSpec(CollectiveOp.ALL_REDUCE, 1 * MB)),
        LayerSpec("b", 1000.0, 800.0, 600.0,
                  weight_grad_comm=CommSpec(CollectiveOp.ALL_REDUCE, 1 * MB)),
    ), DATA_PARALLEL)
    return TrainingLoop(system, model, num_iterations=1).run()


class TestLayerRows:
    def test_rows_in_model_order(self, report):
        rows = layer_rows(report)
        assert [r.name for r in rows] == ["a", "b"]
        assert [r.index for r in rows] == [0, 1]

    def test_totals(self, report):
        row = layer_rows(report)[0]
        assert row.compute_cycles == pytest.approx(2400.0)
        assert row.total_comm_cycles == row.weight_grad_comm_cycles


class TestFormatting:
    def test_layer_table_contains_layers(self, report):
        table = format_layer_table(report)
        assert "a" in table and "b" in table
        assert "compute" in table

    def test_layer_table_max_rows(self, report):
        table = format_layer_table(report, max_rows=1)
        assert "b" not in table.splitlines()[-1]

    def test_breakdown_format(self):
        b = DelayBreakdown()
        b.record_ready_queue(10.0)
        text = format_breakdown(b)
        assert "P0" in text
        assert "queue" in text

    def test_run_summary(self, report):
        summary = RunSummary.from_report(report)
        assert summary.model_name == "demo"
        text = summary.format()
        assert "demo" in text
        assert "exposed" in text
        assert f"{summary.num_iterations} iteration" in text
