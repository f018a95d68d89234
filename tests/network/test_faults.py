"""Failure-injection tests: degraded links slow collectives but never
break them."""

import pytest

from repro.collectives.context import CollectiveContext
from repro.collectives.ring_algorithms import RingAllReduce
from repro.collectives.types import CollectiveOp
from repro.config.parameters import SimulationConfig, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.config.units import MB
from repro.dims import Dimension
from repro.errors import NetworkError
from repro.events.engine import EventQueue
from repro.network.fast_backend import FastBackend
from repro.network.faults import (
    degrade_link,
    degrade_random_links,
    slowest_link_bandwidth,
)
from repro.system.sys_layer import System
from repro.topology.logical import LogicalTopology, build_torus_topology

NET = paper_network_config()


def all_reduce_time(fabric, size=2 * MB):
    topo = LogicalTopology(fabric)
    system = System(topo, SimulationConfig(system=SystemConfig(), network=NET))
    collective = system.request_collective(CollectiveOp.ALL_REDUCE, size)
    system.run_until_idle(max_events=200_000_000)
    return collective.duration_cycles


class TestDegradeLink:
    def test_bandwidth_scaled(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        link = fabric.links[0]
        before = link.config.bandwidth_gbps
        degrade_link(link, bandwidth_factor=0.25)
        assert link.config.bandwidth_gbps == pytest.approx(before / 4)

    def test_extra_latency_added(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        link = fabric.links[0]
        before = link.config.latency_cycles
        degrade_link(link, extra_latency_cycles=500.0)
        assert link.config.latency_cycles == before + 500.0

    def test_validation(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        with pytest.raises(NetworkError):
            degrade_link(fabric.links[0], bandwidth_factor=0.0)
        with pytest.raises(NetworkError):
            degrade_link(fabric.links[0], extra_latency_cycles=-1.0)


class TestCollectivesUnderFaults:
    def test_one_bad_link_slows_the_whole_ring(self):
        """A ring all-reduce runs at the speed of its slowest link."""
        healthy = build_torus_topology(
            TorusShape(1, 4, 1), NET, SystemConfig(horizontal_rings=1)).fabric
        faulty = build_torus_topology(
            TorusShape(1, 4, 1), NET, SystemConfig(horizontal_rings=1)).fabric
        ring = faulty.channels_for(Dimension.HORIZONTAL, (0, 0))[0]
        degrade_link(ring.links[0], bandwidth_factor=0.25)

        def ring_time(fabric):
            ring = fabric.channels_for(Dimension.HORIZONTAL, (0, 0))[0]
            events = EventQueue()
            ctx = CollectiveContext(FastBackend(events, NET))
            algo = RingAllReduce(ctx, ring, 1 * MB)
            algo.start_all()
            events.run(max_events=10_000_000)
            assert algo.done
            return algo.finished_at

        assert ring_time(faulty) > 1.5 * ring_time(healthy)

    def test_degraded_fabric_still_completes(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        degrade_random_links(fabric, count=4, bandwidth_factor=0.5, seed=3)
        assert all_reduce_time(fabric) > 0

    def test_degradation_monotone(self):
        def time_with_factor(factor):
            fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
            degrade_random_links(fabric, count=4, bandwidth_factor=factor,
                                 seed=1, kind="package")
            return all_reduce_time(fabric)

        assert time_with_factor(0.25) > time_with_factor(0.5) > 0


class TestDegradeRandomLinks:
    def test_deterministic_for_seed(self):
        f1 = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        f2 = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        v1 = degrade_random_links(f1, 3, 0.5, seed=9)
        v2 = degrade_random_links(f2, 3, 0.5, seed=9)
        assert [l.link_id - f1.links[0].link_id for l in v1] == \
            [l.link_id - f2.links[0].link_id for l in v2]

    def test_kind_filter(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        victims = degrade_random_links(fabric, 2, 0.5, kind="local")
        assert all(l.kind == "local" for l in victims)

    def test_count_bounds(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        with pytest.raises(NetworkError):
            degrade_random_links(fabric, 10**6, 0.5)

    def test_slowest_link_reporting(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        degrade_random_links(fabric, 1, 0.1, kind="package")
        assert slowest_link_bandwidth(fabric) == pytest.approx(2.5)

    def test_extra_latency_forwarded_to_victims(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        baseline = {l.link_id: l.config.latency_cycles for l in fabric.links}
        victims = degrade_random_links(fabric, 3, seed=5,
                                       extra_latency_cycles=750.0)
        assert len(victims) == 3
        for link in victims:
            assert link.config.latency_cycles == \
                baseline[link.link_id] + 750.0
        untouched = [l for l in fabric.links if l not in victims]
        assert all(l.config.latency_cycles == baseline[l.link_id]
                   for l in untouched)
