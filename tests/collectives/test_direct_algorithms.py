"""Tests for the switch-based direct collective algorithms (Fig. 5 right)."""

import pytest

from repro.collectives.direct_algorithms import (
    DirectAllGather,
    DirectAllReduce,
    DirectAllToAll,
    DirectReduceScatter,
)
from repro.errors import CollectiveError

from collective_helpers import Platform, make_switches

NODES = [0, 1, 2, 3]


def one_step_cycles(message_bytes: float, reduction: float = 0.0) -> float:
    """With one dedicated switch per peer pair, a direct step costs one
    message serialization on the uplink (pipelined into the downlink) plus
    two link latencies, one packet forwarding, the router hop, and the
    endpoint delay + reduction."""
    ser = message_bytes / 100.0
    first_packet = min(message_bytes, 512.0) / 100.0
    return (ser + 50.0) + first_packet + 1.0 + 50.0 + 10.0 + reduction


class TestDirectReduceScatter:
    def test_exact_time_dedicated_switches(self, platform):
        switches = make_switches(3, NODES)
        algo = DirectReduceScatter(platform.ctx, NODES, switches, 4000.0)
        algo.start_all()
        platform.run()
        assert algo.done
        assert algo.finished_at == pytest.approx(one_step_cycles(1000.0))

    def test_single_switch_serializes_uplinks(self, platform):
        """With one switch, a node's three sends share one uplink."""
        switches = make_switches(1, NODES)
        algo = DirectReduceScatter(platform.ctx, NODES, switches, 4000.0)
        algo.start_all()
        platform.run()
        dedicated = one_step_cycles(1000.0)
        assert algo.finished_at > dedicated + 15.0

    def test_reduction_delay_applies(self):
        p = Platform(reduction_per_kb=100.0)
        switches = make_switches(3, NODES)
        algo = DirectReduceScatter(p.ctx, NODES, switches, 4096.0)
        algo.start_all()
        p.run()
        assert algo.finished_at == pytest.approx(one_step_cycles(1024.0, 100.0))

    def test_needs_a_switch(self, platform):
        with pytest.raises(CollectiveError):
            DirectReduceScatter(platform.ctx, NODES, [], 4000.0)

    def test_per_node_done(self, platform):
        done = []
        switches = make_switches(3, NODES)
        algo = DirectReduceScatter(platform.ctx, NODES, switches, 4000.0,
                                   on_node_done=done.append)
        algo.start_all()
        platform.run()
        assert sorted(done) == NODES


class TestDirectAllGather:
    def test_no_reduction(self):
        p = Platform(reduction_per_kb=1000.0)
        switches = make_switches(3, NODES)
        algo = DirectAllGather(p.ctx, NODES, switches, 4000.0)
        algo.start_all()
        p.run()
        assert algo.finished_at == pytest.approx(one_step_cycles(1000.0))


class TestDirectAllToAll:
    def test_same_cost_as_gather(self, platform):
        switches = make_switches(3, NODES)
        a2a = DirectAllToAll(platform.ctx, NODES, switches, 4000.0)
        a2a.start_all()
        platform.run()

        p2 = Platform()
        ag = DirectAllGather(p2.ctx, NODES, make_switches(3, NODES), 4000.0)
        ag.start_all()
        p2.run()
        assert a2a.finished_at == pytest.approx(ag.finished_at)


class TestDirectAllReduce:
    def test_is_two_steps(self, platform):
        switches = make_switches(3, NODES)
        algo = DirectAllReduce(platform.ctx, NODES, switches, 4000.0)
        algo.start_all()
        platform.run()
        assert algo.done
        assert algo.finished_at == pytest.approx(2 * one_step_cycles(1000.0))

    def test_tracks_per_node_state(self, platform):
        switches = make_switches(3, NODES)
        algo = DirectAllReduce(platform.ctx, NODES, switches, 4000.0)
        algo.start_all()
        platform.run()
        assert all(algo.node_done(n) for n in NODES)
        assert algo.started_at == 0.0


class TestSwitchSpreading:
    def test_lsq_offset_rotates_switches(self, platform):
        """Different chunks (lsq offsets) must use different switches for
        the same peer pair, spreading load."""
        switches = make_switches(3, NODES)
        a0 = DirectReduceScatter(platform.ctx, NODES, switches, 4000.0,
                                 lsq_offset=0)
        a1 = DirectReduceScatter(platform.ctx, NODES, switches, 4000.0,
                                 lsq_offset=1)
        s0 = a0._switch_at(1)
        s1 = a1._switch_at(1)
        assert s0.switch_id != s1.switch_id

    def test_distance_spread_contention_free(self, platform):
        """switches == peers: each sender's peers use distinct switches
        (uplinks), and so do each receiver's (downlinks)."""
        switches = make_switches(3, NODES)
        algo = DirectReduceScatter(platform.ctx, NODES, switches, 4000.0)
        def switch_id(src, dst):
            distance = (NODES.index(dst) - NODES.index(src)) % len(NODES)
            return algo._switch_at(distance).switch_id

        for src in NODES:
            assert len({switch_id(src, dst) for dst in NODES if dst != src}) == 3
        for dst in NODES:
            assert len({switch_id(src, dst) for src in NODES if src != dst}) == 3

    def test_duplicate_nodes_rejected(self, platform):
        with pytest.raises(CollectiveError):
            DirectReduceScatter(platform.ctx, [0, 0, 1],
                                make_switches(1, [0, 1]), 100.0)
