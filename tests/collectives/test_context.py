"""Tests for the collective execution context and per-phase stats."""

import pytest

from repro.collectives.context import CollectiveContext, PhaseStats
from repro.collectives.ring_algorithms import RingReduceScatter
from repro.config.parameters import LinkConfig, NetworkConfig
from repro.errors import CollectiveError
from repro.events.engine import EventQueue
from repro.network.channel import RingChannel
from repro.network.fast_backend import FastBackend
from repro.network.link import Link
from repro.system.stats import DelayBreakdown
from repro.system.transport import ReliableTransport

IDEAL = LinkConfig(bandwidth_gbps=100.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL)


def make_ctx(**kwargs):
    events = EventQueue()
    return events, CollectiveContext(FastBackend(events, NET), **kwargs)


class TestContext:
    def test_reduction_cycles_scale_per_kb(self):
        _, ctx = make_ctx(reduction_cycles_per_kb=10.0)
        assert ctx.reduction_cycles(2048.0) == pytest.approx(20.0)
        assert ctx.reduction_cycles(0.0) == 0.0

    def test_at_uses_event_queue(self):
        events, ctx = make_ctx()
        fired = []
        ctx.at(7.0, lambda: fired.append(ctx.now))
        events.run()
        assert fired == [7.0]

    def test_send_records_stats_by_phase(self):
        """An algorithm instance resolves its phase's stats from the
        context's breakdown once and records every delivered message
        there: a 2-node reduce-scatter sends one 1000 B message per node."""
        breakdown = DelayBreakdown()
        events, ctx = make_ctx(breakdown=breakdown)
        ring = RingChannel([0, 1], [Link(0, 1, IDEAL), Link(1, 0, IDEAL)])
        RingReduceScatter(ctx, ring, 2000.0, phase_index=3).start_all()
        events.run()
        assert list(breakdown.phase_stats) == [3]
        stats = breakdown.phase_stats[3]
        assert ctx.phase_stats(3) is stats
        assert stats.messages == 2
        # 1000 B at 100 B/cycle plus 50 cycles of latency, no queueing.
        assert stats.network_cycles == pytest.approx(2 * 60.0)
        assert stats.queue_cycles == 0.0

    def test_send_without_sink(self):
        events, ctx = make_ctx()
        assert ctx.phase_stats(1) is None
        done = []
        ctx.send(0, 1, 100.0, [Link(0, 1, IDEAL)], tag=None,
                 on_delivered=done.append)
        events.run()
        assert len(done) == 1

    def test_on_failed_reaches_only_a_reliable_backend(self):
        """A raw backend never reports loss, so the context drops
        ``on_failed`` for it; the reliable transport takes it."""
        events, ctx = make_ctx()
        assert not ctx.reliable
        done = []
        ctx.send(0, 1, 100.0, [Link(0, 1, IDEAL)], tag=None,
                 on_delivered=done.append, on_failed=done.append)
        events.run()
        assert len(done) == 1
        transport = ReliableTransport(FastBackend(EventQueue(), NET))
        assert CollectiveContext(transport).reliable

    def test_validation(self):
        with pytest.raises(CollectiveError):
            make_ctx(endpoint_delay_cycles=-1.0)
        with pytest.raises(CollectiveError):
            make_ctx(reduction_cycles_per_kb=-1.0)


class TestPhaseStats:
    def test_record_accumulates(self):
        stats = PhaseStats()
        for q, n in ((10.0, 40.0), (20.0, 60.0)):
            stats.record((None, 0, 1, 100.0, None, 0.0, q), q + n)
        assert stats.messages == 2
        assert stats.mean_queue_cycles == pytest.approx(15.0)
        assert stats.mean_network_cycles == pytest.approx(50.0)
        assert stats.bytes == pytest.approx(200.0)

    def test_empty_means(self):
        stats = PhaseStats()
        assert stats.mean_queue_cycles == 0.0
        assert stats.mean_network_cycles == 0.0
