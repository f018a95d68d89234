"""Tests for logical topology views and builders."""

import pytest

from repro.config.parameters import AllToAllShape, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.dims import Dimension
from repro.errors import TopologyError
from repro.topology.logical import build_alltoall_topology, build_torus_topology

NET = paper_network_config()


def channel_counts(topo, dim):
    """The parallel channel counts of ``dim``'s groups (one value when
    every group has the same)."""
    return {len(channels) for channels in topo.fabric.groups(dim).values()}


class TestBuilders:
    def test_torus_builder_uses_system_ring_counts(self):
        system = SystemConfig(local_rings=3, horizontal_rings=2, vertical_rings=1)
        topo = build_torus_topology(TorusShape(2, 4, 4), NET, system)
        assert channel_counts(topo, Dimension.LOCAL) == {3}
        assert channel_counts(topo, Dimension.HORIZONTAL) == {4}  # 2 bidir
        assert channel_counts(topo, Dimension.VERTICAL) == {2}    # 1 bidir

    def test_alltoall_builder_uses_switch_count(self):
        system = SystemConfig(global_switches=5)
        topo = build_alltoall_topology(AllToAllShape(2, 4), NET, system)
        assert channel_counts(topo, Dimension.ALLTOALL) == {5}

    def test_default_system_config(self):
        topo = build_torus_topology(TorusShape(2, 2, 2), NET)
        assert topo.num_npus == 8


class TestScoping:
    def test_unscoped_returns_all_dimensions(self):
        topo = build_torus_topology(TorusShape(2, 4, 3), NET)
        assert topo.dim_sizes() == [
            (Dimension.LOCAL, 2),
            (Dimension.VERTICAL, 3),
            (Dimension.HORIZONTAL, 4),
        ]

    def test_scope_restricts_and_keeps_order(self):
        topo = build_torus_topology(TorusShape(2, 4, 3), NET)
        scoped = topo.dim_sizes(scope=[Dimension.HORIZONTAL, Dimension.LOCAL])
        assert scoped == [(Dimension.LOCAL, 2), (Dimension.HORIZONTAL, 4)]

    def test_unknown_scope_rejected(self):
        topo = build_torus_topology(TorusShape(2, 4, 3), NET)
        with pytest.raises(TopologyError):
            topo.dim_sizes(scope=[Dimension.ALLTOALL])

    def test_degenerate_dim_not_listed(self):
        topo = build_torus_topology(TorusShape(1, 8, 1), NET)
        assert topo.dim_sizes() == [(Dimension.HORIZONTAL, 8)]

    def test_switch_dimension_size_counts_packages(self):
        """A switch channel attaches every NPU, but an alltoall group holds
        one NPU per package."""
        topo = build_alltoall_topology(AllToAllShape(2, 4), NET)
        assert topo.dim_sizes() == [(Dimension.LOCAL, 2), (Dimension.ALLTOALL, 4)]

    def test_dimensions_property(self):
        topo = build_alltoall_topology(AllToAllShape(2, 4), NET)
        assert topo.dimensions == [Dimension.LOCAL, Dimension.ALLTOALL]
