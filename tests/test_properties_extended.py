"""Extended property-based tests: direct algorithms, routing, faults,
pipeline bounds, and multi-phase volumes."""

import math

from hypothesis import given, settings, strategies as st

from repro.analytical.cost_models import direct_all_reduce_cycles, LinkParams
from repro.collectives.context import CollectiveContext
from repro.collectives.direct_algorithms import DirectAllReduce
from repro.config.parameters import (
    LinkConfig,
    NetworkConfig,
    SimulationConfig,
    SystemConfig,
    TorusShape,
)
from repro.config.presets import paper_network_config
from repro.events.engine import EventQueue
from repro.network.channel import SwitchChannel
from repro.network.fast_backend import FastBackend
from repro.network.link import Link
from repro.network.faults import degrade_random_links
from repro.network.routing import FabricRouter
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology
from repro.workload.pipeline import PipelineStage, PipelineTrainingLoop

IDEAL = LinkConfig(bandwidth_gbps=100.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL,
                    router_latency_cycles=1.0)
PAPER_NET = paper_network_config()


def make_switches(num_switches, nodes):
    switches = []
    base = max(nodes) + 1
    for s in range(num_switches):
        sid = base + s
        ups = {n: Link(n, sid, IDEAL) for n in nodes}
        downs = {n: Link(sid, n, IDEAL) for n in nodes}
        switches.append(SwitchChannel(sid, nodes, ups, downs))
    return switches


# -- direct algorithms vs analytical -------------------------------------------

@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=8),
       size=st.floats(min_value=2048.0, max_value=4e6))
def test_direct_all_reduce_never_beats_analytical_bound(n, size):
    """With one dedicated switch per peer, the simulated direct all-reduce
    can never beat the closed-form serialization + latency bound."""
    events = EventQueue()
    ctx = CollectiveContext(FastBackend(events, NET),
                            reduction_cycles_per_kb=0.0,
                            endpoint_delay_cycles=10.0)
    nodes = list(range(n))
    algo = DirectAllReduce(ctx, nodes, make_switches(max(1, n - 1), nodes), size)
    algo.start_all()
    events.run(max_events=2_000_000)
    assert algo.done
    params = LinkParams(bytes_per_cycle=100.0, latency_cycles=50.0,
                        endpoint_delay_cycles=10.0)
    bound = direct_all_reduce_cycles(size, n, params, parallel_links=n - 1)
    assert algo.finished_at >= bound - 1e-6


# -- routing -------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=3, max_value=12),
       src=st.integers(min_value=0, max_value=11),
       dst=st.integers(min_value=0, max_value=11))
def test_ring_routing_is_shortest_way_round(n, src, dst):
    src, dst = src % n, dst % n
    if src == dst:
        return
    fabric = build_torus_topology(TorusShape(1, n, 1), NET, SystemConfig(horizontal_rings=1)).fabric
    router = FabricRouter(fabric)
    forward = (dst - src) % n
    backward = (src - dst) % n
    assert router.hop_count(src, dst) == min(forward, backward)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_routing_survives_random_degradation(seed):
    """Degrading links changes weights, never connectivity."""
    fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
    degrade_random_links(fabric, count=6, bandwidth_factor=0.5, seed=seed)
    router = FabricRouter(fabric)
    assert all(router.reachable(0, d) for d in range(1, 8))


# -- faults ---------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(factor=st.floats(min_value=0.1, max_value=0.9))
def test_degradation_never_speeds_up_collectives(factor):
    from repro.collectives.types import CollectiveOp

    def all_reduce_time(degrade):
        fabric = build_torus_topology(TorusShape(2, 2, 2), PAPER_NET).fabric
        if degrade:
            degrade_random_links(fabric, count=4, bandwidth_factor=factor,
                                 seed=5, kind="package")
        from repro.topology.logical import LogicalTopology

        system = System(LogicalTopology(fabric),
                        SimulationConfig(system=SystemConfig(),
                                         network=PAPER_NET))
        c = system.request_collective(CollectiveOp.ALL_REDUCE, 1 << 20)
        system.run_until_idle(max_events=100_000_000)
        return c.duration_cycles

    assert all_reduce_time(True) >= all_reduce_time(False)


# -- pipeline bounds --------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(stages=st.integers(min_value=2, max_value=6),
       microbatches=st.integers(min_value=1, max_value=12),
       fwd=st.floats(min_value=1000.0, max_value=100_000.0))
def test_pipeline_respects_gpipe_lower_bound(stages, microbatches, fwd):
    cfg = SystemConfig(horizontal_rings=2)
    topo = build_torus_topology(TorusShape(1, 8, 1), PAPER_NET, cfg)
    system = System(topo, SimulationConfig(system=cfg, network=PAPER_NET))
    bwd = 2 * fwd
    stage_list = [PipelineStage(i, i, fwd, bwd, 64 * 1024.0)
                  for i in range(stages)]
    report = PipelineTrainingLoop(system, stage_list, microbatches).run(
        max_events=50_000_000)
    bound = (microbatches + stages - 1) * (fwd + bwd)
    assert report.total_cycles >= bound - 1e-6
    assert 0.0 <= report.bubble_fraction < 1.0


# -- multi-phase volume conservation ----------------------------------------------

@settings(max_examples=10, deadline=None)
@given(local=st.integers(min_value=1, max_value=4),
       horizontal=st.integers(min_value=2, max_value=4),
       vertical=st.integers(min_value=1, max_value=4))
def test_baseline_all_reduce_moves_expected_bytes(local, horizontal, vertical):
    """Modeled bytes (every NPU's messages, from the breakdown) must equal
    the Sec. V-B volume arithmetic: per node, sum over dims of 2(n-1)/n
    times the payload."""
    from repro.analytical.cost_models import hierarchical_all_reduce_volume
    from repro.collectives.types import CollectiveOp
    from repro.topology.logical import LogicalTopology

    shape = TorusShape(local, horizontal, vertical)
    fabric = build_torus_topology(shape, NET).fabric
    system = System(LogicalTopology(fabric),
                    SimulationConfig(system=SystemConfig(preferred_set_splits=2),
                                     network=NET))
    size = 1 << 20
    system.request_collective(CollectiveOp.ALL_REDUCE, size)
    system.run_until_idle(max_events=200_000_000)
    measured = sum(s.bytes for s in system.breakdown.phase_stats.values())
    expected = (hierarchical_all_reduce_volume(
        [local, horizontal, vertical], enhanced=False) * size * shape.num_npus)
    assert math.isclose(measured, expected, rel_tol=1e-9)
