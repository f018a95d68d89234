"""Tests for the ready queue, dispatcher and LSQ bookkeeping (Fig. 7)."""

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import (
    CollectiveAlgorithm,
    SchedulingPolicy,
    SimulationConfig,
    SystemConfig,
    TorusShape,
)
from repro.config.presets import paper_network_config
from repro.config.units import KB, MB
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology

NET = paper_network_config()


def make_system(**system_kwargs) -> System:
    system_cfg = SystemConfig(**system_kwargs)
    topo = build_torus_topology(TorusShape(2, 2, 2), NET, system_cfg)
    return System(topo, SimulationConfig(system=system_cfg, network=NET))


class TestDispatcher:
    def test_small_set_dispatches_fully(self):
        sys_ = make_system(preferred_set_splits=4)
        sys_.request_collective(CollectiveOp.ALL_REDUCE, 64 * KB)
        assert sys_.scheduler.ready_count == 0
        assert sys_.scheduler.in_flight_count == 4

    def test_threshold_limits_initial_issue(self):
        """With T=2 and P=2, a 16-chunk set issues only 2 chunks at first."""
        sys_ = make_system(preferred_set_splits=16, dispatch_threshold=2,
                           dispatch_batch=2)
        sys_.request_collective(CollectiveOp.ALL_REDUCE, 16 * MB)
        assert sys_.scheduler.in_flight_count == 2
        assert sys_.scheduler.ready_count == 14

    def test_dispatch_continues_as_chunks_drain(self):
        sys_ = make_system(preferred_set_splits=16, dispatch_threshold=2,
                           dispatch_batch=2)
        collective = sys_.request_collective(CollectiveOp.ALL_REDUCE, 16 * MB)
        sys_.run_until_idle(max_events=50_000_000)
        assert collective.done
        assert sys_.scheduler.ready_count == 0

    def test_idle_after_drain(self):
        sys_ = make_system()
        sys_.request_collective(CollectiveOp.ALL_REDUCE, 64 * KB)
        sys_.run_until_idle(max_events=10_000_000)
        assert sys_.scheduler.idle


class TestSchedulingPolicy:
    def _completion_order(self, policy: SchedulingPolicy) -> list[str]:
        sys_ = make_system(
            scheduling_policy=policy,
            preferred_set_splits=4,
            dispatch_threshold=1,
            dispatch_batch=1,
        )
        order = []
        for name in ("first", "second", "third"):
            c = sys_.request_collective(CollectiveOp.ALL_REDUCE, 4 * MB,
                                        name=name)
            c.on_complete(lambda cc: order.append(cc.name))
        sys_.run_until_idle(max_events=100_000_000)
        return order

    def test_fifo_completes_in_request_order(self):
        assert self._completion_order(SchedulingPolicy.FIFO) == [
            "first", "second", "third"]

    def test_lifo_prioritizes_latest_request(self):
        """LIFO serves the most recently requested collective first
        (Sec. III-E first-layer prioritization), so the first request
        finishes last."""
        order = self._completion_order(SchedulingPolicy.LIFO)
        assert order[-1] == "first"

    def test_policies_differ(self):
        assert (self._completion_order(SchedulingPolicy.FIFO)
                != self._completion_order(SchedulingPolicy.LIFO))


class TestReadyQueueStats:
    def test_p0_delays_recorded(self):
        sys_ = make_system(preferred_set_splits=16, dispatch_threshold=1,
                           dispatch_batch=1)
        sys_.request_collective(CollectiveOp.ALL_REDUCE, 16 * MB)
        sys_.run_until_idle(max_events=100_000_000)
        assert sys_.breakdown.ready_queue_count == 16
        assert sys_.breakdown.mean_ready_queue_delay > 0.0

    def test_immediate_dispatch_has_zero_p0(self):
        sys_ = make_system(preferred_set_splits=4, dispatch_threshold=8,
                           dispatch_batch=16)
        sys_.request_collective(CollectiveOp.ALL_REDUCE, 4 * MB)
        sys_.run_until_idle(max_events=50_000_000)
        assert sys_.breakdown.mean_ready_queue_delay == pytest.approx(0.0)


class TestLSQReporting:
    def test_lsq_counts_match_channels(self):
        sys_ = make_system(local_rings=2, vertical_rings=1, horizontal_rings=1,
                           algorithm=CollectiveAlgorithm.ENHANCED)
        collective = sys_.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB)
        counts = sys_.scheduler.lsq_counts(collective.plan)
        # Enhanced: RS local (2 rings), AR vertical (2 = 1 bidir),
        # AR horizontal (2), AG local (2).
        assert counts == [2, 2, 2, 2]
        sys_.run_until_idle(max_events=50_000_000)
