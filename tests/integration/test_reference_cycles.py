"""Every simulated object is freed by reference counting.

Each case runs with the cyclic collector disabled and then asserts that
``gc.collect()`` finds nothing unreachable: a finished run, its system,
fabric, chunk executions and algorithm state machines must all go when
their last reference does, not when the collector next runs.  A search
frees each point's fabric as the point ends, and a point-to-point or
pipeline run frees its router's link graph.  On failure the message
lists the garbage by type.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.trace import collect_timeline
from repro.collectives.types import CollectiveOp
from repro.config.parameters import (
    AllToAllShape,
    CollectiveAlgorithm,
    PacketRouting,
    SchedulingPolicy,
    SimulationConfig,
    SystemConfig,
    TorusShape,
    TransportConfig,
)
from repro.config.presets import paper_network_config
from repro.harness.runners import (
    alltoall_platform,
    run_collective,
    run_training,
    torus_platform,
)
from repro.models.resnet50 import resnet50
from repro.network.detailed.backend import DetailedBackend
from repro.network.fault_schedule import FaultAction, FaultEvent, FaultSchedule
from repro.parallel import ParallelExecutor, RunCache
from repro.resilience.watchdog import WatchdogConfig
from repro.search import SearchSpace, make_objective, make_strategy, run_search
from repro.system.sys_layer import System
from repro.topology import build_torus_topology
from repro.workload.pipeline import PipelineStage, PipelineTrainingLoop

KB = 1024


def _cyclic_garbage(run) -> tuple[int, Counter]:
    """Run ``run()`` with the collector off; return how many objects the
    collector then finds unreachable and their census by type.  The gc
    state is restored whatever happens, so the check is safe next to
    other tests in one worker."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    saved = len(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        found = gc.collect()
        census = Counter(type(obj).__qualname__ for obj in gc.garbage[saved:])
        return found, census
    finally:
        del gc.garbage[saved:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def _assert_no_cycles(run) -> None:
    found, census = _cyclic_garbage(run)
    assert found == 0, (
        f"{found} objects left for the cyclic collector: "
        + ", ".join(f"{count} {name}" for name, count in census.most_common(20)))


def _with_system(spec, **changes):
    spec.config = replace(spec.config, system=replace(spec.config.system, **changes))
    return spec


def _detailed_factory(events, network, sanitizer):
    return DetailedBackend(events, network, sanitizer=sanitizer)


def _ring(routing):
    return _with_system(torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4),
                        packet_routing=routing)


def _detailed():
    spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
    spec.backend_factory = _detailed_factory
    return spec


def _watched():
    spec = _ring(PacketRouting.SOFTWARE)
    spec.watchdog = WatchdogConfig()
    return spec


def _transport(link_down: bool = False, link_up: bool = True):
    """A 1x8x1 ring under the reliable transport; with ``link_down`` its
    1->2 link fails at t=1000, and comes back at t=400,000 only with
    ``link_up`` (otherwise messages exhaust their retries and reroute)."""
    spec = _with_system(torus_platform(TorusShape(1, 8, 1), preferred_set_splits=4),
                        transport=TransportConfig())
    if link_down:
        events = [FaultEvent(time=1000.0, action=FaultAction.LINK_DOWN, link=(1, 2))]
        if link_up:
            events.append(FaultEvent(time=400_000.0, action=FaultAction.LINK_UP,
                                     link=(1, 2)))
        spec.fault_schedule = FaultSchedule(events)
    return spec


COLLECTIVES = {
    "ring-ar-software": (lambda: _ring(PacketRouting.SOFTWARE), CollectiveOp.ALL_REDUCE, False),
    "ring-ar-hardware": (lambda: _ring(PacketRouting.HARDWARE), CollectiveOp.ALL_REDUCE, False),
    "ring-a2a-software": (lambda: _ring(PacketRouting.SOFTWARE), CollectiveOp.ALL_TO_ALL, False),
    "ring-a2a-hardware": (lambda: _ring(PacketRouting.HARDWARE), CollectiveOp.ALL_TO_ALL, False),
    "direct-ar": (
        lambda: alltoall_platform(AllToAllShape(local=2, packages=4), preferred_set_splits=4),
        CollectiveOp.ALL_REDUCE, False),
    "detailed-ar": (_detailed, CollectiveOp.ALL_REDUCE, False),
    "sanitized-ar": (lambda: _ring(PacketRouting.SOFTWARE), CollectiveOp.ALL_REDUCE, True),
    "watchdog-ar": (_watched, CollectiveOp.ALL_REDUCE, False),
    "transport-ar": (_transport, CollectiveOp.ALL_REDUCE, False),
    "transport-flap-ar": (lambda: _transport(link_down=True), CollectiveOp.ALL_REDUCE, False),
    "transport-reroute-ar": (lambda: _transport(link_down=True, link_up=False),
                             CollectiveOp.ALL_REDUCE, False),
}


@pytest.mark.parametrize("name", sorted(COLLECTIVES))
def test_collective_leaves_no_cycles(name):
    builder, op, sanitize = COLLECTIVES[name]
    size = 64 * KB if name.startswith("detailed") else 256 * KB
    outcome = {}

    def run():
        result = run_collective(builder(), op, size, sanitize=sanitize)
        outcome["cycles"] = result.duration_cycles
        outcome["transport"] = result.transport_stats

    _assert_no_cycles(run)
    assert outcome["cycles"] > 0
    # The faults really cost retransmissions, and without the link coming
    # back some messages gave up (and their ring rerouted).
    if name == "transport-flap-ar":
        assert outcome["transport"].retries > 0
    if name == "transport-reroute-ar":
        assert outcome["transport"].failed > 0


def test_traced_run_leaves_no_cycles():
    """A traced system keeps its finished chunk executions for the
    timeline; they must not lead back to the scheduler."""
    outcome = {}

    def run():
        spec = _ring(PacketRouting.SOFTWARE)
        system = System(spec.topology_builder(spec.config.system), spec.config,
                        trace=True)
        system.request_collective(CollectiveOp.ALL_REDUCE, 256 * KB)
        system.run_until_idle()
        outcome["spans"] = len(collect_timeline(system))

    _assert_no_cycles(run)
    assert outcome["spans"] > 0


def test_training_step_leaves_no_cycles():
    outcome = {}

    def run():
        platform = torus_platform(
            TorusShape(2, 2, 1),
            algorithm=CollectiveAlgorithm.ENHANCED,
            scheduling_policy=SchedulingPolicy.LIFO,
            horizontal_rings=1,
            vertical_rings=1,
        )
        model = resnet50(compute=platform.config.compute, minibatch=32)
        report, _system = run_training(model, platform, num_iterations=1)
        outcome["cycles"] = report.total_cycles

    _assert_no_cycles(run)
    assert outcome["cycles"] > 0


def _warm_networkx() -> None:
    """Import networkx and route once: its import and the decorators it
    compiles on a function's first call leave cyclic garbage once per
    process, which is not the run's."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_edge(0, 1, weight=1.0)
    nx.shortest_path(graph, 0, 1, weight="weight")


def test_p2p_run_leaves_no_cycles():
    """A point-to-point transfer routes over ``FabricRouter``'s networkx
    graph; the graph and its links must go with the system."""
    _warm_networkx()
    outcome = {}

    def run():
        spec = torus_platform(TorusShape(2, 2, 2))
        system = System(spec.topology_builder(spec.config.system), spec.config)
        transfer = system.request_p2p(0, 7, 256 * KB)
        system.run_until_idle()
        outcome["cycles"] = transfer.duration_cycles

    _assert_no_cycles(run)
    assert outcome["cycles"] > 0


def test_pipeline_run_leaves_no_cycles():
    _warm_networkx()
    outcome = {}

    def run():
        system_config = SystemConfig(horizontal_rings=2)
        config = SimulationConfig(system=system_config, network=paper_network_config())
        topology = build_torus_topology(TorusShape(1, 8, 1), config.network,
                                        system_config)
        stages = [PipelineStage(i, i, 50_000.0, 100_000.0, 256 * KB)
                  for i in range(4)]
        report = PipelineTrainingLoop(System(topology, config), stages,
                                      num_microbatches=4).run(max_events=10_000_000)
        outcome["cycles"] = report.total_cycles

    _assert_no_cycles(run)
    assert outcome["cycles"] > 0


SEARCH_SPACE = {
    "name": "reference-cycles",
    "num_npus": 8,
    "collective": "allreduce",
    "size_bytes": 262144,
    "axes": {
        "topology": ["Torus", "AllToAll"],
        "torus_shape": ["2x4x1", "2x2x2"],
        "alltoall_shape": ["2x4"],
        "algorithm": ["baseline", "enhanced"],
        "scheduling_policy": ["LIFO"],
        "chunks": [4],
        "local_rings": [1, 2],
        "horizontal_rings": [1],
        "vertical_rings": [1],
        "global_switches": [2],
        "symmetric": [False],
    },
}


def test_search_leaves_no_cycles(tmp_path):
    space = SearchSpace.from_dict(SEARCH_SPACE)
    outcome = {}

    def run():
        objective = make_objective("time", space.cost_table, space.size_bytes)
        strategy = make_strategy("random", space, 1, generation_size=8)
        executor = ParallelExecutor(jobs=1, cache=RunCache(str(tmp_path / "cache")))
        trajectory = run_search(space, objective, strategy, budget=12,
                                executor=executor,
                                trajectory_path=str(tmp_path / "trajectory.jsonl"))
        outcome["points"] = len(trajectory)
        outcome["simulations"] = executor.simulations_run

    _assert_no_cycles(run)
    assert outcome == {"points": 12, "simulations": 12}
    assert len(list((tmp_path / "cache").glob("*.json"))) == 12
