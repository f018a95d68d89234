"""Unit tests for the FIFO link model."""

import pytest

from repro.config.parameters import LinkConfig
from repro.errors import NetworkError
from repro.network.link import Link


def make_link(**kwargs) -> Link:
    config = LinkConfig(
        bandwidth_gbps=kwargs.pop("bandwidth_gbps", 100.0),
        latency_cycles=kwargs.pop("latency_cycles", 50.0),
        packet_size_bytes=kwargs.pop("packet_size_bytes", 512),
        efficiency=kwargs.pop("efficiency", 1.0),
        message_quantum_bytes=kwargs.pop("message_quantum_bytes", None),
    )
    return Link(0, 1, config, **kwargs)


class TestReserve:
    def test_idle_link_grants_immediately(self):
        link = make_link()
        start, head, tail = link.reserve(at=100.0, size_bytes=1000.0)
        assert start == pytest.approx(100.0)
        # 1000 B / 100 B-per-cycle = 10 cycles serialization + 50 latency.
        assert tail == pytest.approx(100.0 + 10.0 + 50.0)

    def test_head_arrival_is_first_packet(self):
        link = make_link()
        _, head, _ = link.reserve(at=0.0, size_bytes=5120.0)
        # first packet = 512 B -> 5.12 cycles + 50 latency.
        assert head == pytest.approx(5.12 + 50.0)

    def test_short_message_head_equals_tail(self):
        link = make_link()
        _, head, tail = link.reserve(at=0.0, size_bytes=100.0)
        assert head == pytest.approx(tail)

    def test_fifo_queueing(self):
        link = make_link()
        link.reserve(at=0.0, size_bytes=1000.0)   # occupies [0, 10)
        start, _, tail = link.reserve(at=0.0, size_bytes=1000.0)
        assert start == pytest.approx(10.0)
        assert tail == pytest.approx(10.0 + 10.0 + 50.0)

    def test_gap_between_messages_is_idle(self):
        link = make_link()
        link.reserve(at=0.0, size_bytes=1000.0)
        start, _, _ = link.reserve(at=1000.0, size_bytes=1000.0)
        assert start == pytest.approx(1000.0)

    def test_stats_accumulate(self):
        link = make_link()
        link.reserve(at=0.0, size_bytes=1000.0)
        link.reserve(at=0.0, size_bytes=500.0)
        assert link.stats.messages == 2
        assert link.stats.bytes == pytest.approx(1500.0)
        assert link.stats.busy_cycles == pytest.approx(15.0)
        assert link.stats.queue_cycles == pytest.approx(10.0)

    def test_reset_clears_reservations(self):
        link = make_link()
        link.reserve(at=0.0, size_bytes=10_000.0)
        link.reset()
        assert link.next_free == 0.0
        assert link.stats.messages == 0

    def test_rejects_negative_size(self):
        with pytest.raises(NetworkError):
            make_link().reserve(at=0.0, size_bytes=-1.0)

    def test_rejects_self_loop(self):
        config = LinkConfig(bandwidth_gbps=1.0, latency_cycles=0.0,
                            packet_size_bytes=64)
        with pytest.raises(NetworkError):
            Link(5, 5, config)

    def test_efficiency_slows_serialization(self):
        fast = make_link(efficiency=1.0)
        slow = make_link(efficiency=0.5)
        _, _, fast_tail = fast.reserve(0.0, 1000.0)
        _, _, slow_tail = slow.reserve(0.0, 1000.0)
        assert slow_tail > fast_tail

    def test_quantum_overhead_in_serialization(self):
        plain = make_link()
        quantum = make_link(message_quantum_bytes=512)
        # Rebuild with overhead since make_link pops quantum kwargs.
        cfg = LinkConfig(bandwidth_gbps=100.0, latency_cycles=50.0,
                         packet_size_bytes=512, efficiency=1.0,
                         message_quantum_bytes=512, quantum_overhead_cycles=10.0)
        quantum = Link(0, 1, cfg)
        _, _, plain_tail = plain.reserve(0.0, 1024.0)
        _, _, quantum_tail = quantum.reserve(0.0, 1024.0)
        assert quantum_tail - plain_tail == pytest.approx(20.0)

    def test_link_ids_unique(self):
        assert make_link().link_id != make_link().link_id
