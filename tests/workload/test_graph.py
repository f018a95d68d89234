"""The dependency-graph executor behind both training loops."""

import pytest

from repro.collectives import CollectiveOp
from repro.config import SimulationConfig, SystemConfig, TorusShape, paper_network_config
from repro.config.units import MB
from repro.errors import WorkloadError
from repro.system import System
from repro.topology import build_torus_topology
from repro.workload.graph import WorkloadGraph

NET = paper_network_config()


def make_system(shape=TorusShape(2, 2, 2)) -> System:
    config = SystemConfig()
    topology = build_torus_topology(shape, NET, config)
    return System(topology, SimulationConfig(system=config, network=NET))


class TestExecution:
    def test_dependency_cycle_raises_drained_error(self):
        system = make_system()
        graph = WorkloadGraph(system)
        graph.compute(10.0, 0)
        graph.compute(10.0, 0, deps=[2])
        graph.compute(10.0, 0, deps=[1])
        with pytest.raises(WorkloadError, match="drained before the workload finished"):
            graph.run()
        assert system.events.events_processed == 1
        assert graph.completed == [0]

    def test_join_adds_no_event(self):
        def run(with_join):
            system = make_system()
            graph = WorkloadGraph(system)
            first = graph.compute(5.0, 0)
            gate = graph.join([first]) if with_join else first
            graph.compute(0.0, 0, deps=[gate])
            graph.run()
            return system.events.events_processed, [n.done_at for n in graph.nodes]

        assert run(with_join=False) == (2, [5.0, 5.0])
        assert run(with_join=True) == (2, [5.0, 5.0, 5.0])

    def test_stream_runs_lowest_rank_then_earliest_arrival(self):
        system = make_system()
        graph = WorkloadGraph(system)
        graph.compute(10.0, "npu")
        graph.compute(1.0, "npu", rank=1)
        graph.compute(1.0, "npu", rank=0)
        graph.compute(1.0, "npu", rank=1)
        graph.compute(1.0, "other")
        graph.run()
        assert graph.completed == [4, 0, 2, 1, 3]

    def test_wait_charged_to_each_later_dependency_in_order(self):
        """A node waits from its first dependency; each later one that
        finishes after the wait so far charges the gap to its tag."""
        system = make_system()
        graph = WorkloadGraph(system)
        graph.compute(150_000.0, 0)
        graph.collective([], "fast", CollectiveOp.ALL_REDUCE, 1024.0)
        graph.collective([], "slow", CollectiveOp.ALL_REDUCE, 16 * MB)
        graph.join([0, 2, 1])
        graph.run()
        stream, fast, slow, _ = (node.done_at for node in graph.nodes)
        assert fast < stream < slow
        assert graph.exposed == {"slow": slow - stream}

