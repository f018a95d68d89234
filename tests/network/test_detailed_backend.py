"""Tests for the flit-level detailed backend, including agreement with the
fast backend on uncontended transfers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.parameters import LinkConfig, NetworkConfig
from repro.errors import NetworkError
from repro.events.engine import EventQueue
from repro.network.fast_backend import FastBackend
from repro.network.link import Link
from repro.network.detailed.backend import DetailedBackend, packet_flits

IDEAL = LinkConfig(bandwidth_gbps=128.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)


def make_net(**kwargs) -> NetworkConfig:
    defaults = dict(local_link=IDEAL, package_link=IDEAL,
                    flit_width_bits=1024, router_latency_cycles=1.0,
                    vcs_per_vnet=4, buffers_per_vc=16)
    defaults.update(kwargs)
    return NetworkConfig(**defaults)


def delivery_times(backend, done):
    """A delivery handler appending each message's delivery time."""
    return lambda record: done.append(backend.events.now)


def run_send(backend, src, dst, size, path):
    """Deliver one message; its delivery time."""
    done = []
    backend.send(src, dst, size, path, None, delivery_times(backend, done))
    backend.events.run(max_events=2_000_000)
    assert len(done) == 1
    return done[0]


def _packets(size, packet_bytes, flit_bytes):
    """Every packet's ``(flits, tail)``, expanded from ``packet_flits``."""
    count, flits, tail, last_flits, last_tail = packet_flits(
        size, packet_bytes, flit_bytes)
    return [(flits, tail)] * (count - 1) + [(last_flits, last_tail)]


def _flit_sizes(size, packet_bytes, flit_bytes):
    """Every packet's flit sizes, expanded from ``packet_flits``."""
    return [[float(flit_bytes)] * (count - 1) + [tail]
            for count, tail in _packets(size, packet_bytes, flit_bytes)]


def _reference_packets(size_bytes, packet_bytes):
    """Packet payloads as a list, the way messages were once packetized."""
    if size_bytes == 0:
        return [0.0]
    full, rem = divmod(size_bytes, packet_bytes)
    return [float(packet_bytes)] * int(full) + ([float(rem)] if rem else [])


def _flit_split(packet_bytes, flit_bytes):
    """Flit count and last-flit size of one packet, by repeated
    subtraction: the reference the closed form must match."""
    count = 1
    remaining = packet_bytes
    while remaining > flit_bytes:
        remaining -= flit_bytes
        count += 1
    return count, float(max(remaining, 0.0))


#: Flit sizes per packet, as the decomposition produced them before flits
#: stopped being objects: ``(packet_bytes, size) -> [[flit sizes]]``.
FULL_512 = [128.0] * 4
FULL_256 = [128.0] * 2
EXACT_FLIT_SIZES = {
    (512, 0): [[0.0]],
    (512, 1): [[1.0]],
    (512, 127): [[127.0]],
    (512, 128): [[128.0]],
    (512, 129): [[128.0, 1.0]],
    (512, 1200): [FULL_512, FULL_512, [128.0, 48.0]],
    (512, 65536): [FULL_512] * 128,
    (256, 0): [[0.0]],
    (256, 1): [[1.0]],
    (256, 127): [[127.0]],
    (256, 128): [[128.0]],
    (256, 129): [[128.0, 1.0]],
    (256, 1200): [FULL_256] * 4 + [[128.0, 48.0]],
    (256, 65536): [FULL_256] * 256,
}


class TestFlitDecomposition:
    def test_packets_and_flits(self):
        assert packet_flits(1200.0, packet_bytes=512, flit_bytes=128) == \
            (3, 4, 128.0, 2, 48.0)

    def test_flit_sizes_sum_to_packet(self):
        packets = _reference_packets(1000.0, 512)
        for packet, sizes in zip(packets, _flit_sizes(1000.0, 512, 128),
                                 strict=True):
            assert sum(sizes) == pytest.approx(packet)

    @pytest.mark.parametrize("packet_bytes,size", sorted(EXACT_FLIT_SIZES))
    def test_exact_flit_sizes(self, packet_bytes, size):
        assert _flit_sizes(float(size), packet_bytes, 128) == \
            EXACT_FLIT_SIZES[(packet_bytes, size)]

    def test_nonpositive_flit_width_rejected(self):
        with pytest.raises(NetworkError, match="flit width"):
            packet_flits(1024.0, 512, 0)

    @settings(max_examples=400, deadline=None)
    @given(
        packet_bytes=st.one_of(st.sampled_from([64, 100, 127, 128, 129, 256, 300,
                                                512, 1000]),
                               st.integers(1, 4096)),
        flit_bytes=st.one_of(st.sampled_from([1, 16, 125, 128]),
                             st.integers(1, 600)),
        data=st.data(),
    )
    def test_closed_form_matches_repeated_subtraction(self, packet_bytes,
                                                      flit_bytes, data):
        """Zero-byte, sub-flit, exact-multiple, fractional and odd sizes:
        the closed form equals packetizing into a list and splitting each
        packet by repeated subtraction."""
        unit = st.sampled_from([flit_bytes, packet_bytes])
        size = data.draw(st.one_of(
            st.just(0.0),
            st.floats(0.0, flit_bytes, exclude_max=True),
            st.builds(lambda k, u: float(k * u), st.integers(1, 64), unit),
            st.builds(lambda k, u, d: k * u + d, st.integers(0, 64), unit,
                      st.sampled_from([-0.5, 0.25, 0.5, 1.0, 1.5])).filter(
                          lambda x: x >= 0),
            st.floats(0.0, 64.0 * packet_bytes),
        ))
        expected = [_flit_split(packet, flit_bytes)
                    for packet in _reference_packets(size, packet_bytes)]
        assert _packets(size, packet_bytes, flit_bytes) == expected


class TestAgreementWithFastBackend:
    @pytest.mark.parametrize("size", [128.0, 512.0, 4096.0, 65536.0])
    def test_single_hop_times_match(self, size):
        net = make_net()
        times = []
        for backend_cls in (FastBackend, DetailedBackend):
            q = EventQueue()
            link = Link(0, 1, IDEAL)
            backend = backend_cls(q, net)
            times.append(run_send(backend, 0, 1, size, [link]))
        fast, detailed = times
        assert detailed == pytest.approx(fast, rel=0.05)

    def test_two_hop_times_close(self):
        net = make_net()
        times = []
        for backend_cls in (FastBackend, DetailedBackend):
            q = EventQueue()
            l1, l2 = Link(0, 9, IDEAL), Link(9, 1, IDEAL)
            backend = backend_cls(q, net)
            times.append(run_send(backend, 0, 1, 8192.0, [l1, l2]))
        fast, detailed = times
        # The detailed model pays per-flit router latency; allow 15%.
        assert detailed == pytest.approx(fast, rel=0.15)


class TestContention:
    def test_two_messages_share_link(self):
        net = make_net()
        q = EventQueue()
        link = Link(0, 1, IDEAL)
        backend = DetailedBackend(q, net)
        done = []
        backend.send(0, 1, 4096.0, [link], None, delivery_times(backend, done))
        backend.send(0, 1, 4096.0, [link], None, delivery_times(backend, done))
        q.run(max_events=1_000_000)
        assert len(done) == 2
        solo_q = EventQueue()
        solo = run_send(DetailedBackend(solo_q, net), 0, 1, 4096.0,
                        [Link(0, 1, IDEAL)])
        # Sharing the link must slow at least one message down (flit-level
        # VC interleaving spreads the slowdown over both messages).
        assert max(done) > solo * 1.2

    def test_credit_limit_stalls_but_completes(self):
        """A tiny downstream buffer forces backpressure on a 2-hop path."""
        net = make_net(vcs_per_vnet=1, buffers_per_vc=1)
        q = EventQueue()
        l1, l2 = Link(0, 9, IDEAL), Link(9, 1, IDEAL)
        backend = DetailedBackend(q, net)
        delivered_at = run_send(backend, 0, 1, 16384.0, [l1, l2])
        roomy_q = EventQueue()
        roomy = run_send(DetailedBackend(roomy_q, make_net()), 0, 1, 16384.0,
                         [Link(0, 9, IDEAL), Link(9, 1, IDEAL)])
        assert delivered_at >= roomy

    def test_flit_counter(self):
        net = make_net()
        q = EventQueue()
        link = Link(0, 1, IDEAL)
        backend = DetailedBackend(q, net)
        run_send(backend, 0, 1, 1024.0, [link])
        assert backend.total_flits_sent == 8  # 2 packets x 4 flits

    def test_vc_assignment_spreads_packets(self):
        net = make_net(vcs_per_vnet=2)
        q = EventQueue()
        link = Link(0, 1, IDEAL)
        backend = DetailedBackend(q, net)
        run_send(backend, 0, 1, 2048.0, [link])
        port = backend._port_for(link)
        assert port.flits_sent == 16
