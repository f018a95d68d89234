"""Unit tests for the block-list fabric as the torus and alltoall builders
lower it."""

import pytest

from repro.collectives.context import CollectiveContext
from repro.collectives.direct_algorithms import DirectReduceScatter
from repro.config.parameters import AllToAllShape, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.dims import Dimension
from repro.errors import TopologyError
from repro.events.engine import EventQueue
from repro.network.fast_backend import FastBackend
from repro.network.physical.fabric import Fabric, Ring, Switch
from repro.topology.logical import build_alltoall_topology, build_torus_topology

NET = paper_network_config()


def torus(shape, **rings):
    return build_torus_topology(TorusShape(*shape), NET, SystemConfig(**rings)).fabric


def alltoall(shape, **switches):
    return build_alltoall_topology(AllToAllShape(*shape), NET,
                                   SystemConfig(**switches)).fabric


class TestTorusCoordinates:
    def test_round_trip(self):
        fabric = torus((2, 4, 3))
        for npu in range(fabric.num_npus):
            l, h, v = fabric.coords(npu)
            assert fabric.npu_id((l, h, v)) == npu == l + 2 * h + 8 * v

    def test_out_of_range(self):
        fabric = torus((2, 2, 2))
        with pytest.raises(TopologyError):
            fabric.coords(8)
        with pytest.raises(TopologyError):
            fabric.npu_id((2, 0, 0))


class TestTorusChannels:
    def test_dimensions_in_traversal_order(self):
        fabric = torus((2, 4, 4))
        assert fabric.dimensions == [Dimension.LOCAL, Dimension.VERTICAL,
                                     Dimension.HORIZONTAL]

    def test_dim_sizes(self):
        fabric = torus((2, 4, 3))
        assert fabric.dim_size(Dimension.LOCAL) == 2
        assert fabric.dim_size(Dimension.HORIZONTAL) == 4
        assert fabric.dim_size(Dimension.VERTICAL) == 3

    def test_degenerate_dimensions_absent(self):
        fabric = torus((1, 8, 1))
        assert fabric.dimensions == [Dimension.HORIZONTAL]

    def test_fully_degenerate_rejected(self):
        with pytest.raises(TopologyError):
            torus((1, 1, 1))

    def test_local_ring_count(self):
        fabric = torus((4, 2, 2), local_rings=3)
        for channels in fabric.groups(Dimension.LOCAL).values():
            assert len(channels) == 3

    def test_bidirectional_rings_make_two_channels_each(self):
        fabric = torus((1, 8, 1), horizontal_rings=4)
        for channels in fabric.groups(Dimension.HORIZONTAL).values():
            assert len(channels) == 8  # 4 bidirectional = 8 unidirectional

    def test_channels_per_group(self):
        """One channel per LSQ (Sec. IV-B): two unidirectional local
        rings, and one bidirectional ring per inter-package dimension as
        two channels."""
        fabric = torus((2, 2, 2), local_rings=2, vertical_rings=1, horizontal_rings=1)
        for dim in fabric.dimensions:
            assert {len(channels) for channels in fabric.groups(dim).values()} == {2}

    def test_opposite_directions_present(self):
        fabric = torus((1, 4, 1), horizontal_rings=1)
        cw, ccw = next(iter(fabric.groups(Dimension.HORIZONTAL).values()))
        assert cw.nodes == list(reversed(ccw.nodes)) or \
            cw.next_node(cw.nodes[0]) != ccw.next_node(cw.nodes[0])

    def test_group_membership(self):
        fabric = torus((2, 4, 4))
        npu = fabric.npu_id((1, 2, 3))
        # A key is the other coordinates in block order (l, h, v).
        assert fabric.group_of(Dimension.LOCAL, npu) == (2, 3)
        assert fabric.group_of(Dimension.HORIZONTAL, npu) == (1, 3)
        assert fabric.group_of(Dimension.VERTICAL, npu) == (1, 2)

    def test_vertical_ring_spans_same_local_and_horizontal(self):
        fabric = torus((2, 4, 4))
        ring = fabric.channels_for(Dimension.VERTICAL, (1, 0))[0]
        for npu in ring.nodes:
            l, h, _v = fabric.coords(npu)
            assert (l, h) == (1, 0)

    def test_link_count_2x4x4(self):
        # Per package: 2 local rings x 2 nodes = 4 local links; 16 packages.
        # Inter: per (dim group) ring of 4: 2 rings cfg -> 4 channels x 4
        # links; horizontal groups = 2*4=8, vertical groups = 8.
        fabric = torus((2, 4, 4), horizontal_rings=2, vertical_rings=2)
        local = 16 * 2 * 2
        inter = 2 * (8 * 4 * 4)
        assert fabric.total_links() == local + inter


class TestAllToAllFabric:
    def test_coordinates(self):
        fabric = alltoall((4, 8))
        for npu in range(fabric.num_npus):
            l, p = fabric.coords(npu)
            assert fabric.npu_id((l, p)) == npu == l + 4 * p

    def test_dimensions(self):
        fabric = alltoall((4, 8))
        assert fabric.dimensions == [Dimension.LOCAL, Dimension.ALLTOALL]

    def test_no_local_dim_when_single_nam(self):
        fabric = alltoall((1, 8))
        assert fabric.dimensions == [Dimension.ALLTOALL]

    def test_switch_count(self):
        fabric = alltoall((1, 8), global_switches=7)
        assert len(fabric.channels_for(Dimension.ALLTOALL, (0,))) == 7
        # 7 switches x 8 nodes x (up + down) = 112 links.
        assert fabric.total_links() == 112

    @staticmethod
    def _direct_on(fabric):
        """The direct algorithm over the fabric's one alltoall group, which
        owns the switch assignment collectives run on these switches."""
        ctx = CollectiveContext(FastBackend(EventQueue(), NET))
        nodes = list(range(fabric.num_npus))
        switches = fabric.channels_for(Dimension.ALLTOALL, (0,))
        return nodes, DirectReduceScatter(ctx, nodes, switches, 4096.0)

    def test_switch_for_latin_square_spread(self):
        """With switches == peers, each of a node's peers maps to a
        distinct switch (Fig. 9's one-link-per-peer configuration)."""
        nodes, algo = self._direct_on(alltoall((1, 8), global_switches=7))
        for src in nodes:
            used = {algo._switch_at((dst - src) % len(nodes)).switch_id
                    for dst in nodes if dst != src}
            assert len(used) == 7

    def test_switch_for_downlink_contention_free(self):
        nodes, algo = self._direct_on(alltoall((1, 8), global_switches=7))
        for dst in nodes:
            used = {algo._switch_at((dst - src) % len(nodes)).switch_id
                    for src in nodes if src != dst}
            assert len(used) == 7

    def test_group_of(self):
        fabric = alltoall((2, 4))
        npu = fabric.npu_id((1, 2))
        assert fabric.group_of(Dimension.LOCAL, npu) == (2,)
        assert fabric.group_of(Dimension.ALLTOALL, npu) == (1,)

    def test_alltoall_groups_share_switches(self):
        fabric = alltoall((2, 4), global_switches=3)
        groups = fabric.groups(Dimension.ALLTOALL)
        assert len(groups) == 2
        ids = [tuple(ch.switch_id for ch in chs) for chs in groups.values()]
        assert ids[0] == ids[1] == (8, 9, 10)


class TestBlocks:
    def test_block_order_is_numbering_order(self):
        fabric = Fabric([Ring(Dimension.VERTICAL, 3, NET.package_link),
                         Ring(Dimension.HORIZONTAL, 2, NET.package_link)], NET)
        assert fabric.coords(1) == (1, 0)
        assert fabric.channels_for(Dimension.VERTICAL, (1,))[0].nodes == [3, 4, 5]
        assert fabric.dimensions == [Dimension.VERTICAL, Dimension.HORIZONTAL]

    def test_block_order_is_link_order(self):
        fabric = Fabric([Ring(Dimension.HORIZONTAL, 2, NET.package_link),
                         Ring(Dimension.LOCAL, 2, NET.local_link, kind="local")], NET)
        kinds = [link.kind for link in fabric.links]
        assert kinds == ["package"] * 8 + ["local"] * 8

    def test_rejects_second_switch(self):
        blocks = [Switch(Dimension.ALLTOALL, 2, NET.package_link),
                  Switch(Dimension.SCALEOUT, 2, NET.package_link)]
        with pytest.raises(TopologyError, match="Switch"):
            Fabric(blocks, NET)

    def test_rejects_empty_and_bad_counts(self):
        with pytest.raises(TopologyError):
            Fabric([], NET)
        with pytest.raises(TopologyError):
            Ring(Dimension.LOCAL, 2, NET.local_link, rings=0)
        with pytest.raises(TopologyError):
            Switch(Dimension.ALLTOALL, 2, NET.package_link, switches=0)
