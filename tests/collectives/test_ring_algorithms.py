"""Correctness and timing tests for the ring collective algorithms.

All timing checks use the idealized link of conftest (100 B/cycle,
50-cycle latency, 10-cycle endpoint delay, no reduction unless stated):
per-step cost for a message of m bytes is m/100 + 50 + 10.
"""

import pytest

from repro.collectives.ring_algorithms import (
    RingAllGather,
    RingAllReduce,
    RingAllToAll,
    RingReduceScatter,
)
from repro.config.parameters import InjectionPolicy, PacketRouting
from repro.errors import CollectiveError

from collective_helpers import Platform, make_ring


def step_cycles(message_bytes: float, reduction: float = 0.0) -> float:
    return message_bytes / 100.0 + 50.0 + 10.0 + reduction


class TestRingReduceScatter:
    def test_exact_time_four_nodes(self, platform):
        ring = make_ring(4)
        algo = RingReduceScatter(platform.ctx, ring, 4000.0)
        algo.start_all()
        platform.run()
        assert algo.done
        # 3 steps of 1000 B messages, lock-step across nodes.
        assert algo.finished_at == pytest.approx(3 * step_cycles(1000.0))

    def test_all_nodes_complete(self, platform):
        ring = make_ring(5)
        algo = RingReduceScatter(platform.ctx, ring, 5000.0)
        algo.start_all()
        platform.run()
        assert all(algo.node_done(n) for n in ring.nodes)

    def test_reduction_delay_adds_per_step(self):
        plain = Platform()
        ring = make_ring(4)
        a1 = RingReduceScatter(plain.ctx, ring, 4096.0)
        a1.start_all()
        plain.run()

        reducing = Platform(reduction_per_kb=100.0)
        ring2 = make_ring(4)
        a2 = RingReduceScatter(reducing.ctx, ring2, 4096.0)
        a2.start_all()
        reducing.run()
        # 3 steps x 1 KB messages x 100 cycles/KB.
        assert a2.finished_at - a1.finished_at == pytest.approx(300.0)

    def test_two_node_ring_single_step(self, platform):
        ring = make_ring(2)
        algo = RingReduceScatter(platform.ctx, ring, 2000.0)
        algo.start_all()
        platform.run()
        assert algo.finished_at == pytest.approx(step_cycles(1000.0))

    def test_skewed_join_buffers_receives(self, platform):
        """A node that joins late must still process messages that arrived
        early (per-node phase progression, Sec. IV-B)."""
        ring = make_ring(3)
        algo = RingReduceScatter(platform.ctx, ring, 3000.0)
        algo.start_node(0)
        algo.start_node(1)
        platform.events.schedule(500.0, lambda: algo.start_node(2))
        platform.run()
        assert algo.done
        assert algo.finished_at > 500.0

    def test_double_join_rejected(self, platform):
        ring = make_ring(3)
        algo = RingReduceScatter(platform.ctx, ring, 300.0)
        algo.start_node(0)
        with pytest.raises(CollectiveError):
            algo.start_node(0)

    def test_foreign_node_rejected(self, platform):
        algo = RingReduceScatter(platform.ctx, make_ring(3), 300.0)
        with pytest.raises(CollectiveError):
            algo.start_node(99)

    def test_rejects_nonpositive_size(self, platform):
        with pytest.raises(CollectiveError):
            RingReduceScatter(platform.ctx, make_ring(3), 0.0)

    def test_per_node_done_callbacks(self, platform):
        done_nodes = []
        ring = make_ring(4)
        algo = RingReduceScatter(platform.ctx, ring, 400.0,
                                 on_node_done=done_nodes.append)
        algo.start_all()
        platform.run()
        assert sorted(done_nodes) == [0, 1, 2, 3]

    def test_all_done_callback_fires_once(self, platform):
        fired = []
        algo = RingReduceScatter(platform.ctx, make_ring(3), 300.0,
                                 on_all_done=lambda: fired.append(True))
        algo.start_all()
        platform.run()
        assert fired == [True]


class TestRingAllGather:
    def test_exact_time_four_nodes(self, platform):
        ring = make_ring(4)
        algo = RingAllGather(platform.ctx, ring, 4000.0)
        algo.start_all()
        platform.run()
        assert algo.finished_at == pytest.approx(3 * step_cycles(1000.0))

    def test_no_reduction_delay(self):
        reducing = Platform(reduction_per_kb=1000.0)
        ring = make_ring(4)
        algo = RingAllGather(reducing.ctx, ring, 4096.0)
        algo.start_all()
        reducing.run()
        assert algo.finished_at == pytest.approx(3 * step_cycles(1024.0))


class TestRingAllReduce:
    def test_is_scatter_plus_gather(self, platform):
        ring = make_ring(4)
        algo = RingAllReduce(platform.ctx, ring, 4000.0)
        algo.start_all()
        platform.run()
        assert algo.done
        assert algo.finished_at == pytest.approx(6 * step_cycles(1000.0))

    def test_matches_separate_stages(self):
        p1 = Platform()
        ar = RingAllReduce(p1.ctx, make_ring(5), 5000.0)
        ar.start_all()
        p1.run()

        p2 = Platform()
        ring = make_ring(5)
        ag = RingAllGather(p2.ctx, ring, 5000.0)
        rs = RingReduceScatter(p2.ctx, ring, 5000.0,
                               on_node_done=ag.start_node)
        rs.start_all()
        p2.run()
        assert ar.finished_at == pytest.approx(ag.finished_at)

    def test_node_done_tracking(self, platform):
        ring = make_ring(3)
        algo = RingAllReduce(platform.ctx, ring, 300.0)
        algo.start_all()
        platform.run()
        assert all(algo.node_done(n) for n in ring.nodes)
        assert algo.started_at == 0.0


class TestRingAllToAll:
    def test_completes_software_routing(self, platform):
        ring = make_ring(4)
        algo = RingAllToAll(platform.ctx, ring, 4000.0)
        algo.start_all()
        platform.run()
        assert algo.done

    def test_software_slower_than_hardware(self):
        """Software routing relays at every intermediate NPU (paying the
        endpoint delay per hop); hardware routing cuts through (Table III
        #14).  Compared under aggressive injection so both modes inject
        identically and only the per-hop handling differs."""
        soft = Platform(endpoint_delay=500.0,
                        packet_routing=PacketRouting.SOFTWARE,
                        injection_policy=InjectionPolicy.AGGRESSIVE)
        a_soft = RingAllToAll(soft.ctx, make_ring(6), 6000.0)
        a_soft.start_all()
        soft.run()

        hard = Platform(endpoint_delay=500.0,
                        packet_routing=PacketRouting.HARDWARE,
                        injection_policy=InjectionPolicy.AGGRESSIVE)
        a_hard = RingAllToAll(hard.ctx, make_ring(6), 6000.0)
        a_hard.start_all()
        hard.run()
        assert a_hard.finished_at < a_soft.finished_at

    def test_aggressive_injection_not_slower(self):
        normal = Platform(injection_policy=InjectionPolicy.NORMAL)
        a_normal = RingAllToAll(normal.ctx, make_ring(5), 5000.0)
        a_normal.start_all()
        normal.run()

        aggressive = Platform(injection_policy=InjectionPolicy.AGGRESSIVE)
        a_aggr = RingAllToAll(aggressive.ctx, make_ring(5), 5000.0)
        a_aggr.start_all()
        aggressive.run()
        assert a_aggr.finished_at <= a_normal.finished_at

    def test_two_node_ring(self, platform):
        ring = make_ring(2)
        algo = RingAllToAll(platform.ctx, ring, 2000.0)
        algo.start_all()
        platform.run()
        assert algo.done
        assert algo.finished_at == pytest.approx(step_cycles(1000.0))

    def test_hardware_aggressive_combination(self):
        p = Platform(packet_routing=PacketRouting.HARDWARE,
                     injection_policy=InjectionPolicy.AGGRESSIVE)
        algo = RingAllToAll(p.ctx, make_ring(4), 4000.0)
        algo.start_all()
        p.run()
        assert algo.done

    def test_messages_reach_correct_destinations(self, platform):
        """Every node must receive exactly n-1 final messages."""
        ring = make_ring(5)
        algo = RingAllToAll(platform.ctx, ring, 5000.0)
        algo.start_all()
        platform.run()
        assert all(count == 4 for count in algo._received.values())
