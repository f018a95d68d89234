"""Tests for point-to-point transfers through the system layer."""

import pytest

from repro.config import (
    SimulationConfig,
    SystemConfig,
    TorusShape,
    paper_network_config,
)
from repro.config.units import KB, MB
from repro.errors import NetworkError
from repro.system import System
from repro.topology import build_torus_topology

NET = paper_network_config()


def make_system(shape=TorusShape(2, 2, 2), **kwargs) -> System:
    cfg = SystemConfig(**kwargs)
    topo = build_torus_topology(shape, NET, cfg)
    return System(topo, SimulationConfig(system=cfg, network=NET))


class TestP2P:
    def test_transfer_completes(self):
        sys_ = make_system()
        transfer = sys_.request_p2p(0, 5, 1 * MB)
        sys_.run_until_idle(max_events=1_000_000)
        assert transfer.done
        assert transfer.duration_cycles > 0

    def test_neighbour_faster_than_far_node(self):
        sys_ = make_system(TorusShape(1, 8, 1), horizontal_rings=1)
        near = sys_.request_p2p(0, 1, 1 * MB, name="near")
        sys_.run_until_idle(max_events=1_000_000)

        sys2 = make_system(TorusShape(1, 8, 1), horizontal_rings=1)
        far = sys2.request_p2p(0, 4, 1 * MB, name="far")
        sys2.run_until_idle(max_events=1_000_000)
        assert near.duration_cycles < far.duration_cycles

    def test_chunking_neutral_under_cut_through(self):
        """The fast backend forwards messages packet-pipelined, so chunking
        a P2P transfer neither helps nor hurts materially — it exists for
        interleaving fairness with concurrent traffic."""
        fine = make_system(TorusShape(1, 8, 1), horizontal_rings=1,
                           preferred_set_splits=16)
        t_fine = fine.request_p2p(0, 4, 8 * MB)
        fine.run_until_idle(max_events=1_000_000)

        coarse = make_system(TorusShape(1, 8, 1), horizontal_rings=1,
                             preferred_set_splits=1)
        t_coarse = coarse.request_p2p(0, 4, 8 * MB)
        coarse.run_until_idle(max_events=1_000_000)
        assert t_fine.duration_cycles == pytest.approx(
            t_coarse.duration_cycles, rel=0.05)

    def test_callback_after_completion(self):
        sys_ = make_system()
        transfer = sys_.request_p2p(0, 3, 64 * KB)
        sys_.run_until_idle(max_events=1_000_000)
        seen = []
        transfer.on_complete(seen.append)
        assert seen == [transfer]

    def test_self_send_rejected(self):
        sys_ = make_system()
        with pytest.raises(NetworkError):
            sys_.request_p2p(2, 2, 1 * MB)

    def test_concurrent_transfers_share_links(self):
        solo = make_system(TorusShape(1, 4, 1), horizontal_rings=1)
        t = solo.request_p2p(0, 1, 4 * MB)
        solo.run_until_idle(max_events=1_000_000)

        busy = make_system(TorusShape(1, 4, 1), horizontal_rings=1)
        transfers = [busy.request_p2p(0, 1, 4 * MB) for _ in range(3)]
        busy.run_until_idle(max_events=1_000_000)
        assert max(x.finished_at for x in transfers) > t.duration_cycles

    def test_p2p_and_collectives_coexist(self):
        from repro.collectives import CollectiveOp

        sys_ = make_system()
        # Point-to-point first: a system whose collectives already chose
        # the quotient run rejects it.
        transfer = sys_.request_p2p(0, 7, 1 * MB)
        collective = sys_.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB)
        sys_.run_until_idle(max_events=50_000_000)
        assert collective.done and transfer.done
