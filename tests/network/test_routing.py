"""Tests for the fabric router."""

import subprocess
import sys

import pytest

from repro.config import AllToAllShape, TorusShape, paper_network_config
from repro.errors import NetworkError
from repro.network.physical import AllToAllFabric, TorusFabric
from repro.network.routing import FabricRouter

NET = paper_network_config()


class TestTorusRouting:
    def test_neighbour_is_one_hop(self):
        fabric = TorusFabric(TorusShape(1, 8, 1), NET, horizontal_rings=1)
        router = FabricRouter(fabric)
        assert router.hop_count(0, 1) == 1

    def test_bidirectional_rings_allow_short_way_round(self):
        fabric = TorusFabric(TorusShape(1, 8, 1), NET, horizontal_rings=1)
        router = FabricRouter(fabric)
        # 0 -> 7 is one hop backwards on the CCW ring, not 7 hops forward.
        assert router.hop_count(0, 7) == 1

    def test_paths_chain_correctly(self):
        fabric = TorusFabric(TorusShape(2, 4, 4), NET)
        router = FabricRouter(fabric)
        path = router.path(0, fabric.num_npus - 1)
        assert path[0].src == 0
        assert path[-1].dst == fabric.num_npus - 1
        for a, b in zip(path, path[1:]):
            assert a.dst == b.src

    def test_all_pairs_reachable(self):
        fabric = TorusFabric(TorusShape(2, 2, 2), NET)
        router = FabricRouter(fabric)
        for src in range(8):
            for dst in range(8):
                if src != dst:
                    assert router.reachable(src, dst)

    def test_prefers_low_latency_local_links(self):
        """Within a package the 90-cycle local link beats any inter-package
        detour."""
        fabric = TorusFabric(TorusShape(2, 2, 2), NET)
        router = FabricRouter(fabric)
        intra = router.path(0, 1)  # same package (local coords 0/1)
        assert all(l.kind == "local" for l in intra)

    def test_diameter(self):
        fabric = TorusFabric(TorusShape(1, 4, 1), NET, horizontal_rings=1)
        router = FabricRouter(fabric)
        assert router.diameter_hops() == 2  # bidirectional 4-ring

    def test_self_path_rejected(self):
        router = FabricRouter(TorusFabric(TorusShape(2, 2, 2), NET))
        with pytest.raises(NetworkError):
            router.path(3, 3)

    def test_unknown_node_rejected(self):
        router = FabricRouter(TorusFabric(TorusShape(2, 2, 2), NET))
        with pytest.raises(NetworkError):
            router.path(0, 10_000)

    def test_path_caching_returns_same_object(self):
        router = FabricRouter(TorusFabric(TorusShape(2, 2, 2), NET))
        assert router.path(0, 5) is router.path(0, 5)


class TestAllToAllRouting:
    def test_cross_package_goes_through_switch(self):
        fabric = AllToAllFabric(AllToAllShape(2, 4), NET)
        router = FabricRouter(fabric)
        path = router.path(0, fabric.npu_id(0, 2))
        assert len(path) == 2  # uplink + downlink

    def test_intra_package_stays_local(self):
        fabric = AllToAllFabric(AllToAllShape(2, 4), NET)
        router = FabricRouter(fabric)
        path = router.path(fabric.npu_id(0, 1), fabric.npu_id(1, 1))
        assert all(l.kind == "local" for l in path)


class TestLazyNetworkx:
    def test_cli_import_does_not_load_networkx(self):
        """Only FabricRouter needs networkx; a CLI collective must not pay
        for importing it."""
        code = ("import sys, repro.cli, repro.harness.runners; "
                "sys.exit('networkx' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0
