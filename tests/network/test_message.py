"""The send contract (a message is its send's arguments, a delivery is one
record) and packetization (Table II granularity)."""

import pytest

from repro.config.parameters import LinkConfig, NetworkConfig, TransportConfig
from repro.errors import NetworkError
from repro.events.engine import EventQueue
from repro.network.detailed.backend import DetailedBackend
from repro.network.fast_backend import FastBackend
from repro.network.fault_schedule import FaultState
from repro.network.link import Link
from repro.network.message import packetize
from repro.system.transport import ReliableTransport

LINK = LinkConfig(bandwidth_gbps=100.0, latency_cycles=50.0,
                  packet_size_bytes=512, efficiency=1.0,
                  message_quantum_bytes=None)
NET = NetworkConfig(local_link=LINK, package_link=LINK, flit_width_bits=1024,
                    router_latency_cycles=1.0)


def fast():
    return FastBackend(EventQueue(), NET)


def detailed():
    return DetailedBackend(EventQueue(), NET)


def transport():
    return ReliableTransport(FastBackend(EventQueue(), NET))


def _ignore(record):
    pass


class TestMessage:
    """``send(src, dst, size_bytes, path, tag, on_delivered)`` on both
    backends and the reliable transport."""

    def test_rejects_negative_size(self):
        for make in (fast, detailed, transport):
            with pytest.raises(NetworkError):
                make().send(0, 1, -1.0, [Link(0, 1, LINK)], None, _ignore)

    def test_rejects_self_send(self):
        # A path can leave and re-enter one endpoint; the send must still
        # be refused.
        path = [Link(3, 4, LINK), Link(4, 3, LINK)]
        for make in (fast, detailed, transport):
            with pytest.raises(NetworkError, match="src == dst"):
                make().send(3, 3, 10.0, path, None, _ignore)

    def test_tag_is_preserved(self):
        backend = fast()
        done = []
        backend.send(0, 1, 1.0, [Link(0, 1, LINK)], ("rs", 2), done.append)
        backend.events.run()
        assert [record[4] for record in done] == [("rs", 2)]


class TestDeliveryRecord:
    @pytest.mark.parametrize("make", [fast, detailed], ids=["fast", "detailed"])
    def test_record_fields_and_timing(self, make):
        """Two messages contend for one link: the record carries the send's
        endpoints, size and tag, and ``created_at <= injected_at <=
        delivered_at`` (the queue's ``now`` at the callback)."""
        backend = make()
        link = Link(0, 1, LINK)
        backend.events.schedule(5.0, lambda: None)
        backend.events.run()
        seen = []

        def on_delivered(record):
            seen.append((record, backend.events.now))

        for tag in ("a", "b"):
            assert backend.send(0, 1, 1000.0, [link], tag, on_delivered) is None
        backend.events.run(max_events=1_000_000)
        assert [record[4] for record, _ in seen] == ["a", "b"]
        for (handler, src, dst, size, _tag, created, injected), delivered in seen:
            assert handler is on_delivered
            assert (src, dst, size) == (0, 1, 1000.0)
            assert created == 5.0
            assert created <= injected <= delivered
        # The second message waited for the first: the fast backend shows
        # it as queueing, the detailed one as network time.
        assert seen[1][1] > seen[0][1]


class TestDropReturn:
    def test_paused_node_drop_reaches_transport(self):
        """``send`` returns the fault layer's ``(kind, reason)`` and the
        transport keys its pause accounting on that value."""
        events = EventQueue()
        backend = FastBackend(events, NET)
        backend.faults = FaultState()
        backend.faults.paused.add(1)
        reliable = ReliableTransport(backend, TransportConfig(
            timeout_cycles=1_000.0, timeout_per_byte=0.0, max_retries=1))
        link = Link(0, 1, LINK)
        assert backend.send(0, 1, 64.0, [link], "raw", _ignore) == (
            "node_paused", "node 1 paused")
        assert reliable.send(0, 1, 64.0, [link], "t", _ignore) == (
            "node_paused", "node 1 paused")
        events.run(until=20_000.0)
        stats = reliable.snapshot_stats()
        # Paused waits are not charged to the one-retry budget.
        assert stats.timeouts > 1
        assert stats.failed == 0
        assert stats.paused_waits == stats.timeouts
        assert stats.retries == 0


class TestPacketize:
    """``(count, last packet bytes)``; every other packet is full."""

    def test_exact_multiple(self):
        assert packetize(1024, 512) == (2, 512.0)

    def test_remainder_packet(self):
        assert packetize(1200, 512) == (3, 176.0)

    def test_small_message_single_packet(self):
        assert packetize(100, 512) == (1, 100.0)

    def test_zero_size_yields_header_packet(self):
        assert packetize(0, 512) == (1, 0.0)

    def test_sum_preserved(self):
        count, last = packetize(999_999, 256)
        assert (count - 1) * 256 + last == 999_999

    def test_invalid_packet_size(self):
        with pytest.raises(NetworkError):
            packetize(100, 0)

    def test_negative_size(self):
        with pytest.raises(NetworkError):
            packetize(-1, 512)


class TestNumPackets:
    """How many packets a message splits into (a zero-byte message is
    one header packet)."""

    @pytest.mark.parametrize("size,packet,expected", [
        (1024, 512, 2),
        (1025, 512, 3),
        (1, 512, 1),
        (0, 512, 1),
    ])
    def test_counts(self, size, packet, expected):
        assert packetize(size, packet)[0] == expected
