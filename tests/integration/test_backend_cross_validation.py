"""Cross-validation: full collective algorithms on the detailed backend.

The strongest check on the fast backend's shortcuts — run the same ring
collective through both backends and compare the finish times.
"""

import pytest

from repro.collectives.context import CollectiveContext
from repro.collectives.ring_algorithms import (
    RingAllGather,
    RingAllReduce,
    RingAllToAll,
    RingReduceScatter,
)
from repro.config.parameters import LinkConfig, NetworkConfig
from repro.events.engine import EventQueue
from repro.network.channel import RingChannel
from repro.network.fast_backend import FastBackend
from repro.network.link import Link
from repro.network.detailed.backend import DetailedBackend

IDEAL = LinkConfig(bandwidth_gbps=128.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL,
                    vcs_per_vnet=8, buffers_per_vc=64)


def run_collective(algorithm_cls, backend_cls, n=4, size=16 * 1024):
    events = EventQueue()
    links = [Link(i, (i + 1) % n, IDEAL) for i in range(n)]
    ring = RingChannel(list(range(n)), links)
    backend = backend_cls(events, NET)
    ctx = CollectiveContext(backend, reduction_cycles_per_kb=0.0)
    algo = algorithm_cls(ctx, ring, size)
    algo.start_all()
    events.run(max_events=5_000_000)
    assert algo.done
    return algo.finished_at


class TestCollectivesOnDetailedBackend:
    @pytest.mark.parametrize("algorithm_cls", [
        RingReduceScatter, RingAllGather, RingAllReduce,
    ])
    def test_lockstep_ring_collectives_agree(self, algorithm_cls):
        fast = run_collective(algorithm_cls, FastBackend)
        detailed = run_collective(algorithm_cls, DetailedBackend)
        assert detailed == pytest.approx(fast, rel=0.10)

    def test_all_to_all_agrees_loosely(self):
        """All-to-all stresses relay interleaving; allow wider slack."""
        fast = run_collective(RingAllToAll, FastBackend)
        detailed = run_collective(RingAllToAll, DetailedBackend)
        assert detailed == pytest.approx(fast, rel=0.25)

    def test_detailed_backend_scales_with_ring_size(self):
        small = run_collective(RingAllReduce, DetailedBackend, n=3)
        large = run_collective(RingAllReduce, DetailedBackend, n=6)
        assert large > small

    def test_detailed_backend_deterministic(self):
        a = run_collective(RingAllReduce, DetailedBackend)
        b = run_collective(RingAllReduce, DetailedBackend)
        assert a == b
