"""Timing tests for the fast analytical backend."""

from types import SimpleNamespace

import pytest

from repro.config.parameters import (
    AllToAllShape,
    LinkConfig,
    NetworkConfig,
    SystemConfig,
    TorusShape,
)
from repro.config.presets import paper_network_config
from repro.dims import Dimension
from repro.errors import NetworkError
from repro.events.engine import EventQueue
from repro.network.api import validate_path
from repro.network.fast_backend import FastBackend
from repro.network.link import Link
from repro.topology.logical import build_alltoall_topology, build_torus_topology

#: An idealized link class for exact hand calculations.
IDEAL = LinkConfig(bandwidth_gbps=100.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
IDEAL_NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL,
                          router_latency_cycles=1.0)


def timings(backend, done):
    """A delivery handler appending each message's delivery time and its
    queueing/network split to ``done``."""
    def on_delivered(record):
        now = backend.events.now
        done.append(SimpleNamespace(delivered_at=now,
                                    queueing_cycles=record[6] - record[5],
                                    network_cycles=now - record[6]))
    return on_delivered


def deliver(backend, src, dst, size, path):
    done = []
    backend.send(src, dst, size, path, None, timings(backend, done))
    backend.events.run()
    assert len(done) == 1
    return done[0]


class TestSingleHop:
    def test_exact_delivery_time(self):
        q = EventQueue()
        backend = FastBackend(q, IDEAL_NET)
        link = Link(0, 1, IDEAL)
        msg = deliver(backend, 0, 1, 1000.0, [link])
        # 1000 B / 100 B-per-cycle + 50 latency.
        assert msg.delivered_at == pytest.approx(60.0)
        assert msg.queueing_cycles == pytest.approx(0.0)
        assert msg.network_cycles == pytest.approx(60.0)

    def test_two_messages_queue_fifo(self):
        q = EventQueue()
        backend = FastBackend(q, IDEAL_NET)
        link = Link(0, 1, IDEAL)
        done = []
        backend.send(0, 1, 1000.0, [link], None, timings(backend, done))
        backend.send(0, 1, 1000.0, [link], None, timings(backend, done))
        q.run()
        assert done[0].delivered_at == pytest.approx(60.0)
        assert done[1].delivered_at == pytest.approx(70.0)
        assert done[1].queueing_cycles == pytest.approx(10.0)

    def test_counters(self):
        q = EventQueue()
        backend = FastBackend(q, IDEAL_NET)
        link = Link(0, 1, IDEAL)
        deliver(backend, 0, 1, 123.0, [link])
        assert backend.messages_delivered == 1
        assert backend.bytes_delivered == pytest.approx(123.0)


class TestMultiHop:
    def test_pipelined_two_hops(self):
        q = EventQueue()
        backend = FastBackend(q, IDEAL_NET)
        l1, l2 = Link(0, 9, IDEAL), Link(9, 1, IDEAL)
        msg = deliver(backend, 0, 1, 5120.0, [l1, l2])
        # Hop 1 head: 512/100 + 50 = 55.12; +router 1; hop 2 starts at
        # 56.12, tail = 56.12 + 51.2 + 50 = 157.32.
        assert msg.delivered_at == pytest.approx(56.12 + 51.2 + 50.0)

    def test_multi_hop_beats_store_and_forward(self):
        q = EventQueue()
        backend = FastBackend(q, IDEAL_NET)
        l1, l2 = Link(0, 9, IDEAL), Link(9, 1, IDEAL)
        msg = deliver(backend, 0, 1, 100_000.0, [l1, l2])
        store_forward = 2 * (1000.0 + 50.0)
        assert msg.delivered_at < store_forward

    def test_switch_path_through_fabric(self):
        net = paper_network_config()
        fabric = build_alltoall_topology(
            AllToAllShape(1, 4), net, SystemConfig(global_switches=3)).fabric
        q = EventQueue()
        backend = FastBackend(q, net)
        # The pair at distance 2 uses switch (2 - 1) mod 3.
        switch = fabric.channels_for(Dimension.ALLTOALL, (0,))[1]
        msg = deliver(backend, 0, 2, 1024.0, switch.path(0, 2))
        assert msg.delivered_at > 2 * net.package_link.latency_cycles


class TestPathValidation:
    def test_empty_path(self):
        with pytest.raises(NetworkError):
            validate_path(0, 1, [])

    def test_wrong_source(self):
        with pytest.raises(NetworkError):
            validate_path(0, 1, [Link(2, 1, IDEAL)])

    def test_wrong_destination(self):
        with pytest.raises(NetworkError):
            validate_path(0, 1, [Link(0, 2, IDEAL)])

    def test_discontinuous_path(self):
        with pytest.raises(NetworkError):
            validate_path(0, 1,
                          [Link(0, 5, IDEAL), Link(6, 1, IDEAL)])

    def test_valid_path_accepted(self):
        validate_path(0, 1, [Link(0, 5, IDEAL), Link(5, 1, IDEAL)])

    def test_send_rejects_empty_path_cleanly(self):
        """send() on a degenerate path must fail in validation, never
        reach the hop loop (regression: last_tail was unbound there)."""
        backend = FastBackend(EventQueue(), IDEAL_NET)
        with pytest.raises(NetworkError, match="empty path"):
            backend.send(0, 1, 1.0, [], None, lambda record: None)

    def test_send_rejects_discontinuous_path_cleanly(self):
        backend = FastBackend(EventQueue(), IDEAL_NET)
        with pytest.raises(NetworkError, match="discontinuous"):
            backend.send(0, 1, 1.0, [Link(0, 5, IDEAL), Link(6, 1, IDEAL)],
                         None, lambda record: None)

    @pytest.mark.parametrize("backend_class", ["fast", "detailed"])
    def test_route_memo_shared_by_both_backends(self, backend_class):
        """A route list is checked once per endpoints, on either backend:
        reused for another pair it is checked again and rejected."""
        from repro.network.detailed.backend import DetailedBackend

        backend = {"fast": FastBackend, "detailed": DetailedBackend}[
            backend_class](EventQueue(), IDEAL_NET)
        path = [Link(0, 5, IDEAL), Link(5, 1, IDEAL)]
        for _ in range(3):
            backend.send(0, 1, 1024.0, path, None, lambda record: None)
        assert backend._validated_routes == {id(path): (path, 0, 1)}
        with pytest.raises(NetworkError, match="path starts at 0"):
            backend.send(2, 1, 1024.0, path, None, lambda record: None)


class TestScheduling:
    def test_backend_exposes_event_queue(self):
        q = EventQueue()
        backend = FastBackend(q, IDEAL_NET)
        fired = []
        backend.schedule(5.0, lambda: fired.append(backend.now))
        q.run()
        assert fired == [5.0]

    def test_paper_parameters_end_to_end(self):
        """200 GB/s local link at 94% efficiency with 512 B quanta."""
        net = paper_network_config()
        fabric = build_torus_topology(TorusShape(2, 2, 1), net).fabric
        ring = fabric.channels_for(Dimension.LOCAL, (0, 0))[0]
        q = EventQueue()
        backend = FastBackend(q, net)
        msg = deliver(backend, ring.nodes[0], ring.nodes[1], 1024 * 1024,
                      ring.path(ring.nodes[0], ring.nodes[1]))
        wire = 1024 * 1024 / (200 * 0.94)
        quanta = 1024 * 1024 / 512 * 10
        assert msg.delivered_at == pytest.approx(wire + quanta + 90.0)
