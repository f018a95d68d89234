"""Tests for the 4D/5D torus and scale-out fabrics (the paper's stated
future-work extensions), stacked from Ring blocks."""

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import CollectiveAlgorithm, SimulationConfig, SystemConfig
from repro.config.presets import DEFAULT_SCALEOUT_LINK, paper_network_config
from repro.config.units import MB
from repro.dims import Dimension
from repro.errors import TopologyError
from repro.network.physical.fabric import Fabric, Ring
from repro.system.sys_layer import System
from repro.topology.logical import LogicalTopology

NET = paper_network_config()
INTER_DIMS = (Dimension.VERTICAL, Dimension.HORIZONTAL, Dimension.FOURTH)


def local_rings(size):
    return Ring(Dimension.LOCAL, size, NET.local_link, rings=2,
                bidirectional=False, kind="local")


def torus_4d(sizes, inter_rings=1):
    """Local rings plus three bidirectional package-ring dimensions."""
    local, *inter = sizes
    return Fabric([local_rings(local)] + [
        Ring(dim, size, NET.package_link, rings=inter_rings)
        for dim, size in zip(INTER_DIMS, inter)
    ], NET)


def scaleout_torus(scaleup_sizes, scaleout_size):
    """A scale-up torus replicated over an outermost scale-out ring."""
    local, vertical, horizontal = scaleup_sizes
    return Fabric([
        local_rings(local),
        Ring(Dimension.VERTICAL, vertical, NET.package_link),
        Ring(Dimension.HORIZONTAL, horizontal, NET.package_link),
        Ring(Dimension.SCALEOUT, scaleout_size, DEFAULT_SCALEOUT_LINK,
             kind="scaleout"),
    ], NET)


class TestNDTorusConstruction:
    def test_coordinates_round_trip(self):
        fabric = torus_4d((2, 3, 2, 4))
        for npu in range(fabric.num_npus):
            assert fabric.npu_id(fabric.coords(npu)) == npu

    def test_four_dimensions_present(self):
        fabric = torus_4d((2, 2, 2, 4))
        assert fabric.dimensions == [
            Dimension.LOCAL, Dimension.VERTICAL, Dimension.HORIZONTAL,
            Dimension.FOURTH,
        ]

    def test_five_dimensions(self):
        blocks = [
            Ring(Dimension.LOCAL, 2, NET.local_link,
                 bidirectional=False, kind="local"),
            Ring(Dimension.VERTICAL, 2, NET.package_link),
            Ring(Dimension.HORIZONTAL, 2, NET.package_link),
            Ring(Dimension.FOURTH, 2, NET.package_link),
            Ring(Dimension.FIFTH, 2, NET.package_link),
        ]
        fabric = Fabric(blocks, NET)
        assert fabric.num_npus == 32
        assert len(fabric.dimensions) == 5

    def test_size_one_dimensions_skipped(self):
        fabric = torus_4d((1, 2, 2, 2))
        assert Dimension.LOCAL not in fabric.dimensions

    def test_group_membership_consistent(self):
        fabric = torus_4d((2, 2, 2, 2))
        for dim in fabric.dimensions:
            for group, channels in fabric.groups(dim).items():
                for node in channels[0].nodes:
                    assert fabric.group_of(dim, node) == group

    def test_bidirectional_rings_double_channels(self):
        fabric = torus_4d((2, 4, 1, 1), inter_rings=2)
        channels = next(iter(fabric.groups(Dimension.VERTICAL).values()))
        assert len(channels) == 4

    def test_rejects_duplicate_dims(self):
        blocks = [Ring(Dimension.VERTICAL, 2, NET.package_link)] * 2
        with pytest.raises(TopologyError):
            Fabric(blocks, NET)

    def test_rejects_fully_degenerate(self):
        blocks = [Ring(Dimension.LOCAL, 1, NET.local_link)]
        with pytest.raises(TopologyError):
            Fabric(blocks, NET)


def run_all_reduce(fabric, size=2 * MB):
    topo = LogicalTopology(fabric)
    cfg = SystemConfig(algorithm=CollectiveAlgorithm.ENHANCED)
    system = System(topo, SimulationConfig(system=cfg, network=NET))
    collective = system.request_collective(CollectiveOp.ALL_REDUCE, size)
    system.run_until_idle(max_events=200_000_000)
    assert collective.done
    return collective


class TestCollectivesOnExtensions:
    def test_all_reduce_on_4d(self):
        collective = run_all_reduce(torus_4d((2, 2, 2, 4)))
        # Enhanced: RS local, AR on three inter dims, AG local = 5 phases.
        assert len(collective.plan) == 5

    def test_4d_matches_3d_when_fourth_is_degenerate(self):
        flat = run_all_reduce(torus_4d((2, 4, 4, 1)))
        assert len(flat.plan) == 4

    def test_scaleout_dimension_is_outermost_phase(self):
        fabric = scaleout_torus((2, 2, 2), 4)
        collective = run_all_reduce(fabric)
        inter_phases = [p.dim for p in collective.plan[1:-1]]
        assert inter_phases[-1] is Dimension.SCALEOUT

    def test_scaleout_slower_than_extra_scaleup_dim(self):
        """The same node count with the outermost dimension on Ethernet-
        class links must be slower than on scale-up links."""
        scaleup = run_all_reduce(torus_4d((2, 2, 2, 4)))
        scaleout = run_all_reduce(scaleout_torus((2, 2, 2), 4))
        assert scaleout.duration_cycles > scaleup.duration_cycles

    def test_scaleout_link_defaults(self):
        assert DEFAULT_SCALEOUT_LINK.bandwidth_gbps < NET.package_link.bandwidth_gbps
        assert DEFAULT_SCALEOUT_LINK.latency_cycles > NET.package_link.latency_cycles

    def test_all_to_all_on_4d(self):
        fabric = torus_4d((2, 2, 2, 2))
        topo = LogicalTopology(fabric)
        cfg = SystemConfig()
        system = System(topo, SimulationConfig(system=cfg, network=NET))
        collective = system.request_collective(CollectiveOp.ALL_TO_ALL, 1 * MB)
        system.run_until_idle(max_events=200_000_000)
        assert collective.done
        assert len(collective.plan) == 4
