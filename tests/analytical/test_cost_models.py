"""Tests for the closed-form cost models, including the paper's Sec. V-B
data-volume arithmetic."""

import pytest

from repro.analytical.cost_models import (
    CostTable,
    LinkCounts,
    LinkParams,
    alltoall_link_counts,
    bandwidth_lower_bound_cycles,
    direct_all_reduce_cycles,
    direct_reduce_scatter_cycles,
    dollars_per_step,
    hierarchical_all_reduce_volume,
    link_dollars,
    perf_per_link_dollar,
    platform_dollars,
    ring_all_gather_cycles,
    ring_all_reduce_cycles,
    ring_all_to_all_cycles,
    ring_reduce_scatter_cycles,
    torus_link_counts,
)
from repro.config.fields import build
from repro.errors import CollectiveError, ConfigError

LINK = LinkParams(bytes_per_cycle=100.0, latency_cycles=50.0,
                  endpoint_delay_cycles=10.0)


class TestRingForms:
    def test_reduce_scatter(self):
        # 3 steps x (1000/100 + 60) = 210.
        assert ring_reduce_scatter_cycles(4000.0, 4, LINK) == pytest.approx(210.0)

    def test_all_gather_equals_scatter_without_reduction(self):
        assert ring_all_gather_cycles(4000.0, 4, LINK) == pytest.approx(
            ring_reduce_scatter_cycles(4000.0, 4, LINK))

    def test_all_reduce_is_sum(self):
        assert ring_all_reduce_cycles(4000.0, 4, LINK) == pytest.approx(
            ring_reduce_scatter_cycles(4000.0, 4, LINK)
            + ring_all_gather_cycles(4000.0, 4, LINK))

    def test_reduction_term(self):
        with_reduce = ring_reduce_scatter_cycles(4096.0, 4, LINK, 100.0)
        without = ring_reduce_scatter_cycles(4096.0, 4, LINK)
        assert with_reduce - without == pytest.approx(300.0)

    def test_all_to_all_grows_with_nodes(self):
        small = ring_all_to_all_cycles(8000.0, 4, LINK)
        large = ring_all_to_all_cycles(8000.0, 8, LINK)
        assert large > small

    def test_validation(self):
        with pytest.raises(CollectiveError):
            ring_reduce_scatter_cycles(0.0, 4, LINK)
        with pytest.raises(CollectiveError):
            ring_reduce_scatter_cycles(100.0, 1, LINK)


class TestDirectForms:
    def test_parallel_links_speed_up(self):
        serial = direct_reduce_scatter_cycles(8000.0, 8, LINK, parallel_links=1)
        parallel = direct_reduce_scatter_cycles(8000.0, 8, LINK, parallel_links=7)
        assert parallel < serial

    def test_all_reduce_is_two_steps(self):
        rs = direct_reduce_scatter_cycles(8000.0, 8, LINK, 7)
        ar = direct_all_reduce_cycles(8000.0, 8, LINK, 7)
        assert ar == pytest.approx(2 * rs)

    def test_validation(self):
        with pytest.raises(CollectiveError):
            direct_reduce_scatter_cycles(100.0, 4, LINK, parallel_links=0)


class TestSectionVBVolumes:
    """The per-node traffic arithmetic quoted in Sec. V-B, verbatim."""

    def test_1x64x1_baseline(self):
        assert hierarchical_all_reduce_volume([1, 64, 1], enhanced=False) == \
            pytest.approx(126 / 64)

    def test_1x8x8_baseline(self):
        assert hierarchical_all_reduce_volume([1, 8, 8], enhanced=False) == \
            pytest.approx(28 / 8)

    def test_4x4x4_baseline(self):
        assert hierarchical_all_reduce_volume([4, 4, 4], enhanced=False) == \
            pytest.approx(36 / 8)

    def test_2x8x4_baseline(self):
        assert hierarchical_all_reduce_volume([2, 8, 4], enhanced=False) == \
            pytest.approx(34 / 8)

    def test_volume_ordering_explains_fig10(self):
        """1x8x8 < 2x8x4 < 4x4x4 < 1x64x1 in total volume."""
        v = {shape: hierarchical_all_reduce_volume(list(shape), False)
             for shape in [(1, 64, 1), (1, 8, 8), (2, 8, 4), (4, 4, 4)]}
        assert v[(1, 8, 8)] < v[(2, 8, 4)] < v[(4, 4, 4)]
        # 1x64x1's volume is lower, but its 63-hop ring loses on steps.

    def test_enhanced_cuts_inter_package_traffic(self):
        baseline = hierarchical_all_reduce_volume([4, 4, 4], enhanced=False)
        enhanced = hierarchical_all_reduce_volume([4, 4, 4], enhanced=True)
        assert enhanced < baseline

    def test_enhanced_4x4x4_value(self):
        # RS local 3/4 + 2 dims x (2 * 3/4 / 4) + AG local 3/4 = 2.25.
        assert hierarchical_all_reduce_volume([4, 4, 4], enhanced=True) == \
            pytest.approx(0.75 + 0.75 + 0.75)

    def test_degenerate_dims(self):
        assert hierarchical_all_reduce_volume([1, 1, 1], enhanced=False) == 0.0
        assert hierarchical_all_reduce_volume([1, 8, 1], enhanced=True) == \
            pytest.approx(2 * 7 / 8)


class TestBandwidthFloor:
    def test_all_reduce_moves_twice_the_single_pass_volume(self):
        # 2 x (3/4) x 8000 / 100 = 120 cycles.
        assert bandwidth_lower_bound_cycles("allreduce", 8000.0, 4, 100.0) \
            == pytest.approx(120.0)
        assert bandwidth_lower_bound_cycles("allgather", 8000.0, 4, 100.0) \
            == pytest.approx(60.0)
        assert bandwidth_lower_bound_cycles("alltoall", 8000.0, 4, 100.0) \
            == pytest.approx(60.0)

    def test_unknown_collective(self):
        with pytest.raises(CollectiveError):
            bandwidth_lower_bound_cycles("broadcast", 8000.0, 4, 100.0)

    def test_floor_never_beats_ring_closed_form(self):
        floor = bandwidth_lower_bound_cycles("allreduce", 64000.0, 8, 100.0)
        assert ring_all_reduce_cycles(64000.0, 8, LINK) >= floor


class TestLinkCounts:
    def test_torus_closed_form(self):
        # 2x4x1, 8 NPUs: local 8x2 unidirectional; horizontal 8x1
        # bidirectional rings = 16 links; vertical size 1 contributes 0.
        counts = torus_link_counts(2, 4, 1, local_rings=2,
                                   horizontal_rings=1, vertical_rings=3)
        assert counts == LinkCounts(local=16, package=16, switches=0)

    def test_torus_size1_dims_are_free(self):
        counts = torus_link_counts(1, 8, 1, local_rings=2,
                                   horizontal_rings=4, vertical_rings=2)
        assert counts == LinkCounts(local=0, package=64, switches=0)

    @pytest.mark.parametrize("kind, shape, rings", [
        ("torus", (2, 4, 1), (2, 1, 1)),
        ("torus", (2, 4, 4), (2, 2, 2)),
        ("torus", (1, 8, 1), (3, 2, 1)),
        ("torus", (4, 1, 3), (1, 3, 2)),
        ("alltoall", (1, 8), (2, 7)),
        ("alltoall", (2, 4), (2, 2)),
        ("alltoall", (4, 16), (3, 1)),
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_counts_match_built_fabric(self, kind, shape, rings):
        """The closed forms the search's ``$`` objective reads agree with
        the fabric the simulator builds, link kind by link kind."""
        from repro.config.parameters import AllToAllShape, SystemConfig, TorusShape
        from repro.config.presets import paper_network_config
        from repro.dims import Dimension
        from repro.topology.logical import build_alltoall_topology, build_torus_topology

        if kind == "torus":
            system = SystemConfig(local_rings=rings[0], horizontal_rings=rings[1],
                                  vertical_rings=rings[2])
            fabric = build_torus_topology(TorusShape(*shape),
                                          paper_network_config(), system).fabric
            counts = torus_link_counts(*shape, *rings)
            switches = 0
        else:
            system = SystemConfig(local_rings=rings[0], global_switches=rings[1])
            fabric = build_alltoall_topology(AllToAllShape(*shape),
                                             paper_network_config(), system).fabric
            counts = alltoall_link_counts(*shape, *rings)
            switches = len(fabric.channels_for(Dimension.ALLTOALL, (0,)))
        by_kind = {"local": 0, "package": 0}
        for link in fabric.links:
            by_kind[link.kind] += 1
        assert counts.local == by_kind["local"]
        assert counts.switches == switches
        if kind == "torus":
            assert counts.package == by_kind["package"]
            assert counts.total_links == fabric.total_links()
        else:
            # One closed-form package link per switch port: the built
            # fabric's uplink and downlink pair.
            assert 2 * counts.package == by_kind["package"]

    def test_torus_defaults_match_system_config(self):
        from repro.config.parameters import SystemConfig

        system = SystemConfig()
        assert torus_link_counts(2, 4, 4) == torus_link_counts(
            2, 4, 4, system.local_rings, system.horizontal_rings,
            system.vertical_rings)

    def test_alltoall_closed_form(self):
        # 1x8 with 7 switches: no local rings, one uplink per NPU per
        # switch (the fig09 setup).
        counts = alltoall_link_counts(1, 8, local_rings=2, global_switches=7)
        assert counts == LinkCounts(local=0, package=56, switches=7)
        counts = alltoall_link_counts(2, 4, local_rings=2, global_switches=2)
        assert counts == LinkCounts(local=16, package=16, switches=2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            torus_link_counts(0, 4, 1)
        with pytest.raises(ConfigError):
            torus_link_counts(2, 4, 1, local_rings=0)
        with pytest.raises(ConfigError):
            alltoall_link_counts(2, 1)


class TestCostTable:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="link_dollars: unknown parameter"):
            build(CostTable, {"link_dollars": 1.0})

    def test_rejects_negative_prices(self):
        with pytest.raises(ConfigError):
            CostTable(npu_dollars=-1.0)
        with pytest.raises(ConfigError):
            CostTable(amortization_seconds=0.0)

    def test_link_dollars_closed_form(self):
        table = CostTable(local_link_dollars_per_gbps=2.0,
                          package_link_dollars_per_gbps=10.0,
                          switch_dollars=5000.0)
        counts = LinkCounts(local=16, package=16, switches=2)
        # 16 x 200 x 2 + 16 x 25 x 10 + 2 x 5000 = 20400.
        assert link_dollars(counts, 200.0, 25.0, table) == \
            pytest.approx(20_400.0)

    def test_platform_dollars_adds_npus(self):
        table = CostTable(npu_dollars=10_000.0)
        counts = LinkCounts(local=16, package=16, switches=2)
        assert platform_dollars(counts, 8, 200.0, 25.0, table) == \
            pytest.approx(80_000.0 + link_dollars(counts, 200.0, 25.0, table))

    def test_dollars_per_step_closed_form(self):
        # $1000 platform, 1 s step, 100 s lifetime -> $10 per step.
        table = CostTable(amortization_seconds=100.0)
        assert dollars_per_step(1000.0, 1e9, table) == pytest.approx(10.0)

    def test_perf_per_link_dollar_closed_form(self):
        # 1 GB in 1 s = 1 GB/s; $2 of interconnect -> 0.5 GB/s/$.
        assert perf_per_link_dollar(1e9, 1e9, 2.0) == pytest.approx(0.5)

    def test_validation(self):
        table = CostTable()
        with pytest.raises(ConfigError):
            dollars_per_step(-1.0, 10.0, table)
        with pytest.raises(ConfigError):
            dollars_per_step(1.0, 0.0, table)
        with pytest.raises(ConfigError):
            perf_per_link_dollar(10.0, 10.0, 0.0)
        with pytest.raises(ConfigError):
            link_dollars(LinkCounts(1, 1), 0.0, 25.0, table)
