"""Tests for logical-to-physical ring mapping (Sec. IV-B)."""

import pytest

from repro.config import SimulationConfig, SystemConfig, TorusShape, paper_network_config
from repro.config.parameters import TransportConfig
from repro.config.units import MB
from repro.collectives import CollectiveContext, CollectiveOp, RingAllReduce
from repro.dims import Dimension
from repro.errors import CollectiveError, TopologyError
from repro.events import EventQueue
from repro.network import FastBackend
from repro.network.fault_schedule import FaultSchedule
from repro.system import System
from repro.topology import (
    MappedRingChannel,
    build_torus_topology,
    map_ring_over_ring,
    map_torus_onto_fabric,
)

NET = paper_network_config()


def physical_ring(n=8):
    fabric = build_torus_topology(TorusShape(1, n, 1), NET, SystemConfig(horizontal_rings=1)).fabric
    return fabric.channels_for(Dimension.HORIZONTAL, (0, 0))[0]


class TestMapRingOverRing:
    def test_even_mapping_has_two_links_per_hop(self):
        mapped = map_ring_over_ring([0, 2, 4, 6], physical_ring())
        for node in mapped.nodes:
            assert len(mapped.hop_path(node)) == 2

    def test_adjacent_mapping_has_wrap_path(self):
        mapped = map_ring_over_ring([0, 1, 2, 3], physical_ring())
        assert len(mapped.hop_path(3)) == 5  # 3 -> 4 -> 5 -> 6 -> 7 -> 0

    def test_path_concatenates_hops(self):
        mapped = map_ring_over_ring([0, 2, 4, 6], physical_ring())
        path = mapped.path(0, 4)
        assert [(l.src, l.dst) for l in path] == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_ring_interface(self):
        mapped = map_ring_over_ring([0, 2, 4, 6], physical_ring())
        assert mapped.size == 4
        assert mapped.next_node(6) == 0
        assert mapped.prev_node(0) == 6
        assert mapped.node_at_distance(2, 2) == 6
        assert mapped.link_from(0).src == 0


class TestMappedRingValidation:
    def test_rejects_discontinuous_hop(self):
        ring = physical_ring(4)
        good = ring.path(0, 1)
        bad = [ring.path(2, 3)[0]]
        with pytest.raises(TopologyError):
            MappedRingChannel([0, 1], [good, bad])

    def test_rejects_empty_hop(self):
        with pytest.raises(TopologyError):
            MappedRingChannel([0, 1], [[], []])

    def test_rejects_wrong_hop_count(self):
        ring = physical_ring(4)
        with pytest.raises(TopologyError):
            MappedRingChannel([0, 1], [ring.path(0, 1)])

    def test_rejects_duplicate_nodes(self):
        ring = physical_ring(4)
        with pytest.raises(TopologyError):
            MappedRingChannel([0, 0], [ring.path(0, 1), ring.path(1, 0)])

    def test_unknown_node_rejected(self):
        mapped = map_ring_over_ring([0, 2], physical_ring(4))
        with pytest.raises(TopologyError):
            mapped.position(1)


class TestCollectivesOnMappedRings:
    def _time_all_reduce(self, ring, size=1024 * 1024):
        events = EventQueue()
        ctx = CollectiveContext(FastBackend(events, NET))
        algorithm = RingAllReduce(ctx, ring, size)
        algorithm.start_all()
        events.run(max_events=2_000_000)
        assert algorithm.done
        return algorithm.finished_at

    def test_all_reduce_runs_on_mapped_ring(self):
        mapped = map_ring_over_ring([0, 2, 4, 6], physical_ring())
        assert self._time_all_reduce(mapped) > 0

    def test_logical_hops_cost_more_than_physical(self):
        """A 4-ring mapped over an 8-ring pays two physical links per hop,
        so it must be slower than a native 4-ring."""
        native = physical_ring(4)
        mapped = map_ring_over_ring([0, 2, 4, 6], physical_ring(8))
        assert self._time_all_reduce(mapped) > self._time_all_reduce(native)


class TestMappedRoutes:
    """A mapped ring hands the backend the same list for the same route."""

    def test_route_memo_holds_one_entry_per_hop_path(self):
        """The fast backend validates a route once per list object: a
        mapped ring that built a new list per send grew the memo by one
        entry per message (768 for this all-reduce) and kept every list
        alive until the backend was freed."""
        phys = build_torus_topology(TorusShape(1, 8, 1), NET,
                                    SystemConfig(horizontal_rings=1)).fabric
        topology = map_torus_onto_fabric(TorusShape(2, 2, 2), phys)
        hop_paths = {id(path)
                     for dim in topology.dimensions
                     for channels in topology.fabric.groups(dim).values()
                     for channel in channels
                     for path in channel.hop_paths}
        system = System(topology, SimulationConfig(network=NET))
        collective = system.request_collective(CollectiveOp.ALL_REDUCE, MB)
        system.run_until_idle(max_events=2_000_000)
        assert collective.done
        assert collective.duration_cycles.hex() == (772673.787234037).hex()
        assert len(system.backend._validated_routes) <= len(hop_paths) == 24

    def test_reroute_failure_on_mapped_ring_fails_fast(self):
        """A mapped ring has no counter-rotating partner: a message the
        transport gives up on fails the collective with a diagnostic."""
        phys = build_torus_topology(TorusShape(1, 8, 1), NET,
                                    SystemConfig(horizontal_rings=2)).fabric
        topology = map_torus_onto_fabric(TorusShape(2, 2, 2), phys)
        assert topology.fabric.channels_for(Dimension.LOCAL, (0, 0))[0].reverse_channel is None
        schedule = FaultSchedule.from_dict(
            {"events": [{"time": 0, "action": "link_down", "link": [0, 1]}]})
        config = SimulationConfig(
            system=SystemConfig(transport=TransportConfig(max_retries=1)), network=NET)
        system = System(topology, config, fault_schedule=schedule)
        system.request_collective(CollectiveOp.ALL_REDUCE, MB)
        with pytest.raises(CollectiveError, match="cannot make progress on the ring"):
            system.run_until_idle(max_events=2_000_000)
