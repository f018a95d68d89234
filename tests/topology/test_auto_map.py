"""Tests for automatic logical-onto-physical mapping (Sec. IV-B)."""

import pytest

from repro.collectives import CollectiveOp
from repro.config import (
    CollectiveAlgorithm,
    SimulationConfig,
    SystemConfig,
    TorusShape,
    paper_network_config,
)
from repro.config.units import MB
from repro.dims import Dimension
from repro.errors import TopologyError
from repro.system import System
from repro.topology import LogicalTopology, build_torus_topology, map_torus_onto_fabric

NET = paper_network_config()


def physical_ring(n=8, rings=2):
    return build_torus_topology(
        TorusShape(1, n, 1), NET, SystemConfig(horizontal_rings=rings)).fabric


def run_all_reduce(topology: LogicalTopology, size=1 * MB,
                   algorithm=CollectiveAlgorithm.BASELINE) -> float:
    cfg = SystemConfig(algorithm=algorithm)
    system = System(topology, SimulationConfig(system=cfg, network=NET))
    collective = system.request_collective(CollectiveOp.ALL_REDUCE, size)
    system.run_until_idle(max_events=300_000_000)
    assert collective.done
    return collective.duration_cycles


class TestMappingStructure:
    def test_logical_dims_presented(self):
        topo = map_torus_onto_fabric(TorusShape(2, 2, 2), physical_ring())
        assert topo.dimensions == [Dimension.LOCAL, Dimension.VERTICAL,
                                   Dimension.HORIZONTAL]
        assert topo.dim_sizes() == [(Dimension.LOCAL, 2),
                                    (Dimension.VERTICAL, 2),
                                    (Dimension.HORIZONTAL, 2)]

    def test_channels_share_physical_links(self):
        phys = physical_ring()
        topo = map_torus_onto_fabric(TorusShape(2, 2, 2), phys)
        assert topo.fabric.links is phys.links

    def test_npu_count_must_match(self):
        with pytest.raises(TopologyError):
            map_torus_onto_fabric(TorusShape(2, 2, 2), physical_ring(4))

    def test_group_membership(self):
        topo = map_torus_onto_fabric(TorusShape(2, 2, 2), physical_ring())
        fabric = topo.fabric
        assert fabric.group_of(Dimension.LOCAL, 0) == (0, 0)
        assert fabric.group_of(Dimension.LOCAL, 1) == (0, 0)
        for dim in topo.dimensions:
            for group, channels in fabric.groups(dim).items():
                for node in channels[0].nodes:
                    assert fabric.group_of(dim, node) == group

    def test_rings_per_dim(self):
        topo = map_torus_onto_fabric(TorusShape(2, 2, 2), physical_ring(),
                                     rings_per_dim=2)
        groups = topo.fabric.groups(Dimension.LOCAL)
        assert {len(channels) for channels in groups.values()} == {2}


class TestMappedCollectives:
    def test_all_reduce_completes_on_mapped_topology(self):
        topo = map_torus_onto_fabric(TorusShape(2, 2, 2), physical_ring())
        assert run_all_reduce(topo) > 0

    def test_enhanced_plan_works_when_mapped(self):
        topo = map_torus_onto_fabric(TorusShape(2, 2, 2), physical_ring())
        enhanced = run_all_reduce(topo, algorithm=CollectiveAlgorithm.ENHANCED)
        assert enhanced > 0

    def test_mapped_logical_slower_than_native_physical(self):
        """A 3D logical torus mapped onto a 1D ring shares every logical
        hop over the same few physical links — it must lose to the native
        1D collective (the trade-off the paper's feature quantifies)."""
        phys = physical_ring()
        mapped = map_torus_onto_fabric(TorusShape(2, 2, 2), phys)
        mapped_time = run_all_reduce(mapped)

        native = LogicalTopology(physical_ring())
        native_time = run_all_reduce(native)
        assert mapped_time > native_time

    def test_identity_mapping_matches_native(self):
        """Mapping a 1x8x1 shape onto a 1x8x1 ring with one bidirectional
        ring is the identity (hop = one dedicated physical link in each
        direction): collective time must match the native run exactly."""
        phys = physical_ring(rings=1)
        mapped = map_torus_onto_fabric(TorusShape(1, 8, 1), phys,
                                       rings_per_dim=2)
        native = LogicalTopology(physical_ring(rings=1))
        assert run_all_reduce(mapped) == pytest.approx(
            run_all_reduce(native), rel=1e-9)
