"""Flit bursts against the per-flit path of the detailed backend.

The burst path (``TxPort._start_burst`` and friends) must be invisible to
simulated time: with bursting off, the same workload must land on
bit-identical cycles, the same *logical* event count
(``events_simulated``) and the same per-port link stats.  Collectives
and generated open-loop traffic run both ways and are compared; the
cases where simultaneous events make the two paths differ are kept as
strict expected failures.
"""

import itertools
import math
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.collectives.types import CollectiveOp
from repro.config.parameters import AllToAllShape, LinkConfig, NetworkConfig, TorusShape
from repro.config.units import KB
from repro.events.engine import EventQueue
from repro.harness.runners import (
    alltoall_platform,
    run_collective,
    torus_platform,
)
from repro.network.link import Link
from repro.network.detailed.backend import DetailedBackend
from repro.network.detailed import router
from repro.network.detailed.router import HopContext, TxPort
from repro.sanitize.runtime import RuntimeSanitizer

#: Pre-burst regression constant: the serial path's exact cycle count
#: for the 2x2x2 torus 64 KB all-reduce, recorded before the burst work
#: landed.  Both paths must still produce it, bit for bit.
TORUS_AR_64KB_CYCLES = 2601.3617021276464


class _PerFlitBackend(DetailedBackend):
    """A detailed backend with every port on the per-flit path."""

    def _port_for(self, link):
        port = super()._port_for(link)
        port.burst_enabled = False
        return port


def _run(make_spec, op, size, burst: bool, sanitize: bool = False):
    """One detailed-backend collective with bursting on or off.

    Returns ``(duration_cycles, events_simulated, per-port stats)`` where
    port stats are keyed by ``(src, dst)`` — link ids come from a
    process-global counter and differ between builds.
    """
    backend = DetailedBackend if burst else _PerFlitBackend
    spec = make_spec()
    spec.backend_factory = lambda events, network, sanitizer: backend(
        events, network, sanitizer=sanitizer)
    result = run_collective(spec, op, size, sanitize=sanitize)
    system = result.system
    ports = sorted(system.backend._ports.values(),
                   key=lambda p: (p.link.src, p.link.dst))
    stats = [(p.link.src, p.link.dst, p.flits_sent,
              p.link.stats.bytes, p.link.stats.busy_cycles)
             for p in ports]
    return result.duration_cycles, system.events.events_simulated, stats


WORKLOADS = [
    ("torus_allreduce_64kb",
     lambda: torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4),
     CollectiveOp.ALL_REDUCE, 64 * KB),
    ("torus_alltoall_16kb",
     lambda: torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4),
     CollectiveOp.ALL_TO_ALL, 16 * KB),
    ("switch_allgather_64kb",
     lambda: alltoall_platform(AllToAllShape(local=2, packages=4)),
     CollectiveOp.ALL_GATHER, 64 * KB),
]


class TestBurstEquivalence:
    @pytest.mark.parametrize("name,make_spec,op,size", WORKLOADS,
                             ids=[w[0] for w in WORKLOADS])
    def test_cycles_events_and_port_stats_identical(self, name, make_spec,
                                                    op, size):
        on = _run(make_spec, op, size, burst=True)
        off = _run(make_spec, op, size, burst=False)
        assert on[0] == off[0], "duration_cycles diverged"
        assert on[1] == off[1], "logical event count diverged"
        assert on[2] == off[2], "per-port link stats diverged"

    def test_serial_path_preserves_pre_burst_cycles(self):
        name, make_spec, op, size = WORKLOADS[0]
        cycles, _events, _stats = _run(make_spec, op, size, burst=False)
        assert cycles == TORUS_AR_64KB_CYCLES

    def test_burst_path_preserves_pre_burst_cycles(self):
        name, make_spec, op, size = WORKLOADS[0]
        cycles, _events, _stats = _run(make_spec, op, size, burst=True)
        assert cycles == TORUS_AR_64KB_CYCLES

    def test_sanitized_run_identical(self):
        """The conservation checker's bulk ledger must see every flit the
        burst path delivers — and the sanitizer must not perturb cycles."""
        name, make_spec, op, size = WORKLOADS[0]
        plain = _run(make_spec, op, size, burst=True)
        checked = _run(make_spec, op, size, burst=True, sanitize=True)
        assert plain[0] == checked[0]

    def test_faults_disable_bursting(self):
        """Installing a fault state flips every live port to the serial
        path (burst plans cannot survive a mid-run link retiming)."""
        from repro.events.engine import EventQueue
        from tests.network.test_detailed_backend import IDEAL, make_net
        from repro.network.link import Link

        net = make_net()
        q = EventQueue()
        backend = DetailedBackend(q, net)
        link = Link(0, 1, IDEAL)
        backend.send(0, 1, 4096.0, [link], None, lambda record: None)
        port = next(iter(backend._ports.values()))
        assert port.burst_enabled

        class _FakeFaults:
            pass

        backend.faults = _FakeFaults()
        assert not port.burst_enabled
        backend.faults = None
        assert port.burst_enabled


# -- generated traffic: burst-on vs per-flit bit-identity ---------------------


def _torus_routes(a, b, config):
    """Dimension-order shortest-ring routes on an ``a x b`` torus."""
    links = {}

    def link(u, v):
        if (u, v) not in links:
            links[(u, v)] = Link(u, v, config)
        return links[(u, v)]

    def ring_steps(src, dst, size):
        forward = (dst - src) % size
        step = 1 if forward <= size - forward else -1
        pos, out = src, []
        while pos != dst:
            out.append(((pos + step) % size))
            pos = (pos + step) % size
        return out

    def route(src, dst):
        (x, y), (dx, dy) = (src % a, src // a), (dst % a, dst // a)
        path, node = [], src
        for nx in ring_steps(x, dx, a):
            path.append(link(node, nx + a * y))
            node = nx + a * y
        for ny in ring_steps(y, dy, b):
            path.append(link(node, dx + a * ny))
            node = dx + a * ny
        return path

    return a * b, route


def _alltoall_routes(n, config, switched):
    """A full mesh of direct links, or every pair through one switch."""
    links = {}

    def link(u, v):
        if (u, v) not in links:
            links[(u, v)] = Link(u, v, config)
        return links[(u, v)]

    if switched:
        return n, lambda src, dst: [link(src, n), link(n, dst)]
    return n, lambda src, dst: [link(src, dst)]


SHAPES = st.one_of(
    st.tuples(st.just("torus"), st.integers(1, 4), st.integers(1, 3)).filter(
        lambda s: s[1] * s[2] >= 2),
    st.tuples(st.just("mesh"), st.integers(2, 5)),
    st.tuples(st.just("switch"), st.integers(2, 4)),
)
NETWORKS = st.fixed_dictionaries({
    "bandwidth_gbps": st.sampled_from([25.0, 128.0, 200.0]),
    "latency_cycles": st.sampled_from([0.0, 1.0, 25.0]),
    # 64 and 100 B packets are smaller than a 128 B flit.
    "packet_size_bytes": st.sampled_from([64, 100, 256, 512]),
    "efficiency": st.sampled_from([1.0, 0.94]),
    "flit_width_bits": st.sampled_from([1024, 512, 1000]),
    "router_latency_cycles": st.sampled_from([0.0, 1.0]),
    # Presets and the benchmark run 50 VCs: messages with fewer, as many
    # and more packets than VCs.
    "vcs_per_vnet": st.one_of(st.integers(1, 4), st.sampled_from([7, 50, 64])),
    "buffers_per_vc": st.integers(1, 3),
})
SIZES = st.one_of(
    st.sampled_from([0.0, 1.0, 63.0, 127.0, 128.0, 129.0, 1000.5, 1200.0, 4096.0]),
    st.integers(1, 12_000).map(float),
)
# Send times are multiples of an irrational-looking step, so no send lands
# exactly on a flit boundary (TestSimultaneousEventDivergence).
TIMES = st.integers(0, 500).map(lambda k: k * 0.7071067811865476)
# (source, destination offset, size, send time); several sends from one
# source at nearby times contend for its ports and split bursts.
TRAFFIC = st.lists(
    st.tuples(st.integers(0, 15), st.integers(1, 15), SIZES, TIMES),
    min_size=1, max_size=10,
)


def _drive(shape, params, traffic, burst, sanitize):
    """Send ``traffic`` open-loop over ``shape``; fingerprint the run."""
    config = LinkConfig(
        bandwidth_gbps=params["bandwidth_gbps"],
        latency_cycles=params["latency_cycles"],
        packet_size_bytes=params["packet_size_bytes"],
        efficiency=params["efficiency"], message_quantum_bytes=None)
    network = NetworkConfig(
        local_link=config, package_link=config,
        flit_width_bits=params["flit_width_bits"],
        router_latency_cycles=params["router_latency_cycles"],
        vcs_per_vnet=params["vcs_per_vnet"],
        buffers_per_vc=params["buffers_per_vc"])
    if shape[0] == "torus":
        nodes, route = _torus_routes(shape[1], shape[2], config)
    else:
        nodes, route = _alltoall_routes(shape[1], config, shape[0] == "switch")
    sanitizer = RuntimeSanitizer() if sanitize else None
    events = sanitizer.make_event_queue() if sanitize else EventQueue()
    backend = (DetailedBackend if burst else _PerFlitBackend)(
        events, network, sanitizer=sanitizer)
    #: Each message's delivery time (0.0 while undelivered).
    delivered = [0.0] * len(traffic)

    def on_delivered(record):
        delivered[record[4]] = events.now

    for i, (src, offset, size, at) in enumerate(traffic):
        src %= nodes
        dst = (src + offset % (nodes - 1) + 1) % nodes
        events.schedule_at(at, lambda s=src, d=dst, n=size, i=i, p=route(src, dst):
                           backend.send(s, d, n, p, i, on_delivered))
    events.run(max_events=5_000_000)
    # Without enough VCs and buffers a ring of multi-hop messages can
    # deadlock; both paths must then strand the same flits.
    findings = (sorted(f.code for f in sanitizer.quiescence_findings())
                if sanitizer is not None else [])
    ports = sorted((p.link.src, p.link.dst, p.flits_sent, p.queued_flits(),
                    p.link.stats.bytes.hex(), p.link.stats.busy_cycles.hex())
                   for p in backend._ports.values())
    # Findings only ever come from a deadlock's stranded flits.
    assert not findings or any(port[3] for port in ports)
    return {
        "duration": events.now.hex(),
        "simulated": events.events_simulated,
        "processed": events.events_processed,
        "ports": ports,
        "delivered": [at.hex() for at in delivered],
        "findings": findings,
    }


class TestBurstProperty:
    @settings(max_examples=80, deadline=None)
    @given(shape=SHAPES, params=NETWORKS, traffic=TRAFFIC, sanitize=st.booleans())
    def test_generated_traffic_matches_per_flit_path(self, shape, params,
                                                     traffic, sanitize):
        on = _drive(shape, params, traffic, burst=True, sanitize=sanitize)
        off = _drive(shape, params, traffic, burst=False, sanitize=sanitize)
        # The per-flit path dispatches every logical event; bursts fold
        # most of them into credits.
        assert off["processed"] == off["simulated"]
        assert on["processed"] <= off["processed"]
        on.pop("processed")
        off.pop("processed")
        assert on == off

    def test_contended_port_splits_bursts(self, monkeypatch):
        """Later sends onto a busy port split its burst and stay identical."""
        splits = []
        split = router.TxPort._split_burst
        monkeypatch.setattr(router.TxPort, "_split_burst",
                            lambda port: (splits.append(port), split(port)))
        params = {"bandwidth_gbps": 25.0, "latency_cycles": 1.0,
                  "packet_size_bytes": 100, "efficiency": 0.94,
                  "flit_width_bits": 1024, "router_latency_cycles": 1.0,
                  "vcs_per_vnet": 3, "buffers_per_vc": 2}
        traffic = [(0, 1, 4096.0, 0.0), (0, 1, 1000.5, 7.3),
                   (0, 1, 129.0, 21.9), (1, 3, 0.0, 30.1), (2, 2, 9000.0, 3.7)]
        for sanitize in (False, True):
            on = _drive(("torus", 2, 2), params, traffic, True, sanitize)
            off = _drive(("torus", 2, 2), params, traffic, False, sanitize)
            on.pop("processed")
            off.pop("processed")
            assert on == off
        assert splits

    def test_unbounded_bandwidth_splits(self):
        """A link of infinite bandwidth serializes every flit in zero
        cycles, so sends at one instant split a burst whose flits all
        start at once."""
        params = {"bandwidth_gbps": float("inf"), "latency_cycles": 1.0,
                  "packet_size_bytes": 100, "efficiency": 0.94,
                  "flit_width_bits": 1024, "router_latency_cycles": 1.0,
                  "vcs_per_vnet": 3, "buffers_per_vc": 2}
        traffic = [(0, 1, 4096.0, 0.0), (0, 1, 1000.5, 0.0), (0, 1, 129.0, 0.0),
                   (1, 3, 0.0, 0.0), (2, 2, 9000.0, 0.0)]
        on = _drive(("torus", 2, 2), params, traffic, True, True)
        off = _drive(("torus", 2, 2), params, traffic, False, True)
        on.pop("processed")
        off.pop("processed")
        assert on == off

    def test_runs_held_and_queued_around_multi_hop_flits(self, monkeypatch):
        """Two-hop messages (0 -> 2 on a 4-ring) share node 0's first link
        with one-hop ones: a split's held runs, a message held with them,
        go back to the VC queues when a two-hop message arrives, and the
        one-hop runs still queued behind a two-hop message's last flit are
        planned from the VC queues, one delivery per message."""
        seen = {"spilled": 0, "collected": 0}
        spill, collect = router.TxPort._spill, router.TxPort._queued_runs

        def counting_spill(port):
            seen["spilled"] += len(port._held)
            spill(port)

        def counting_collect(port):
            blocks = collect(port)
            seen["collected"] += len(blocks)
            return blocks

        monkeypatch.setattr(router.TxPort, "_spill", counting_spill)
        monkeypatch.setattr(router.TxPort, "_queued_runs", counting_collect)
        params = {"bandwidth_gbps": 25.0, "latency_cycles": 1.0,
                  "packet_size_bytes": 256, "efficiency": 1.0,
                  "flit_width_bits": 1024, "router_latency_cycles": 1.0,
                  "vcs_per_vnet": 2, "buffers_per_vc": 1}
        step = 0.7071067811865476
        dispatches = {}
        for third in (30, 40):
            traffic = [(0, 1, 512.0, 0.0), (0, 0, 8192.0, step),
                       (0, 0, 3000.0, third * step), (0, 1, 700.0, 31 * step)]
            for sanitize in (False, True):
                on = _drive(("torus", 4, 1), params, traffic, True, sanitize)
                off = _drive(("torus", 4, 1), params, traffic, False, sanitize)
                dispatches[third] = on.pop("processed")
                off.pop("processed")
                assert on == off
        assert seen["spilled"] >= 2 and seen["collected"] >= 2
        # Read with one owner per message; an owner per run would add a
        # delivery dispatch per run.
        assert dispatches[40] == 186


class TestFiftyVCPort:
    """One single-hop port with 50 VCs, the preset width: messages of 1,
    49, 50, 51 and 256 packets, each packet three flits and each
    message's last one two, starting on VC 7 and then wherever the
    backend's VC counter stands."""

    PACKETS = [1, 49, 50, 51, 256]
    CONFIG = LinkConfig(bandwidth_gbps=25.0, latency_cycles=25.0,
                        packet_size_bytes=300, efficiency=0.94,
                        message_quantum_bytes=None)

    def _drive(self, burst, gap):
        """Send the messages ``gap`` cycles apart; fingerprint the port."""
        network = NetworkConfig(
            local_link=self.CONFIG, package_link=self.CONFIG,
            flit_width_bits=1024, router_latency_cycles=1.0,
            vcs_per_vnet=50, buffers_per_vc=1)
        events = EventQueue()
        backend = (DetailedBackend if burst else _PerFlitBackend)(events, network)
        backend._next_vc = 7
        link = Link(0, 1, self.CONFIG)
        delivered = {}
        #: (round-robin pointer, first VC) as each message is sent.
        at_send = []

        def on_delivered(record):
            delivered[record[4]] = events.now.hex()

        def send(i, packets):
            port = backend._ports.get(link.link_id)
            at_send.append((port and port._rr, backend._next_vc))
            backend.send(0, 1, packets * 300.0 - 100.0, [link], i, on_delivered)

        for i, packets in enumerate(self.PACKETS):
            events.schedule_at(i * gap, lambda i=i, packets=packets: send(i, packets))
        events.run()
        port = backend._ports[link.link_id]
        return {
            "delivered": delivered,
            "flits_sent": port.flits_sent,
            "bytes": link.stats.bytes.hex(),
            "busy_cycles": link.stats.busy_cycles.hex(),
            "rr": port._rr,
            "simulated": events.events_simulated,
        }, at_send

    def test_idle_port_messages_match_per_flit_path(self):
        on, at_send = self._drive(burst=True, gap=10_000.0)
        off, _ = self._drive(burst=False, gap=10_000.0)
        assert on == off
        assert on["flits_sent"] == 3 * sum(self.PACKETS) - len(self.PACKETS)
        # Every message starts off VC 0, and at least one finds the
        # round-robin pointer a previous burst left somewhere else.
        assert all(first_vc for _rr, first_vc in at_send)
        assert any(rr is not None and rr != first_vc for rr, first_vc in at_send)

    def test_contended_port_matches_per_flit_path(self):
        # Each send lands mid-burst, off any flit boundary.
        on, _ = self._drive(burst=True, gap=37 * 0.7071067811865476)
        off, _ = self._drive(burst=False, gap=37 * 0.7071067811865476)
        assert on == off

    def test_finished_burst_collects_nothing(self, monkeypatch):
        """A burst no enqueue split leaves the queues empty: its end does
        not walk the VCs for runs."""
        collects = []
        collect = router.TxPort._start_burst
        monkeypatch.setattr(router.TxPort, "_start_burst",
                            lambda port: (collects.append(port), collect(port)))
        self._drive(burst=True, gap=10_000.0)
        assert not collects


def _accumulate(start, step, count):
    """``start`` after ``count`` additions of ``step``, one at a time (not
    ``sum()``, which compensates float sums from Python 3.12)."""
    return deque(itertools.accumulate(itertools.repeat(step, count), initial=start),
                 maxlen=1)[0]


#: Starts just below a power of two, some with odd significands.
_BELOW_POWERS = st.builds(lambda e, k: 2.0 ** e - k * math.ulp(2.0 ** (e - 1)),
                          st.integers(-20, 40), st.integers(0, 8))


@st.composite
def _advance_cases(draw):
    start = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e9), _BELOW_POWERS))
    unit = math.ulp(start or 1.0)
    step = draw(st.one_of(
        st.floats(0.0, 1e4),
        st.floats(1.0, 1e3).map(lambda factor: start * factor),  # step >= start
        st.floats(0.0, 0.5, exclude_max=True).map(lambda part: part * unit),
        st.integers(0, 64).map(lambda whole: (whole + 0.5) * unit),  # exact ties
    ))
    count = draw(st.one_of(st.integers(0, 3000), st.integers(0, 10 ** 6)))
    return start, step, count


class TestAdvance:
    """``router._advance``, every burst float, against one addition at a
    time."""

    @settings(max_examples=200, deadline=None)
    @given(case=_advance_cases())
    # A half-ulp tie on an odd significand rounds up once, then holds.
    @example(case=(1.0 + 2.0 ** -52, 2.0 ** -53, 3))
    # Crossing binades, from zero.
    @example(case=(0.0, 0.1, 10 ** 6))
    def test_matches_sequential_additions(self, case):
        start, step, count = case
        assert router._advance(start, step, count).hex() == _accumulate(*case).hex()


def _picks(burst):
    """A burst plan per pick: each flit's size, serialization time and
    start, then the burst's end."""
    picks = [(size, ser) for size, ser, count in burst.segments for _pick in range(count)]
    starts = [burst.start(pick) for pick in range(len(picks))]
    # The per-flit path's starts: the previous one plus its serialization.
    assert starts + [burst.starts[-1]] == list(itertools.accumulate(
        (ser for _size, ser in picks), initial=burst.starts[0]))
    return [(*pick, start) for pick, start in zip(picks, starts)], burst.starts[-1]


def test_packet_structure_plan_matches_run_plan():
    """An idle-port message planned from its packet structure equals the
    same packets planned as VC-major runs: every pick's size,
    serialization time and start, the burst's end, last slot and
    deliveries."""
    config = LinkConfig(bandwidth_gbps=25.0, latency_cycles=3.0,
                        packet_size_bytes=512, efficiency=0.94,
                        message_quantum_bytes=None)
    for vcs in (1, 3, 5):
        network = NetworkConfig(local_link=config, package_link=config,
                                flit_width_bits=1024, router_latency_cycles=1.0,
                                vcs_per_vnet=vcs, buffers_per_vc=1)
        for count, flits, first_vc in itertools.product(range(1, 13), range(1, 5),
                                                        {0, vcs - 1}):
            for last_flits in range(1, flits + 1):
                packets = (count, flits, 100.0, last_flits,
                           7.0 if last_flits < flits else 60.0)
                plans = []
                for structure in (True, False):
                    port = TxPort(Link(0, 1, config), network, EventQueue())
                    ctx = HopContext([port.link], 0, None, lambda flits: None, None)
                    if structure:
                        port._plan_packets(ctx, first_vc, packets)
                    else:
                        block = port._packet_runs(ctx, first_vc, packets)
                        port._plan(first_vc, *port._merge([block], first_vc))
                    burst = port._burst
                    plans.append((_picks(burst), burst.last_slot,
                                  [delivery[:2] for delivery in burst.deliveries]))
                assert plans[0] == plans[1], (vcs, packets, first_vc)


class TestShortLastPacket:
    """A message of 49 full 512 B packets and a short last one, planned
    at an idle 50-VC port from its packet structure, then split by a
    1000 B send landing before its first flit ends, mid-burst, or at its
    last flit's start.  The last packet is 176 B (a 128 B and a 48 B
    flit) or 100 B (one flit narrower than the flit width)."""

    CONFIG = LinkConfig(bandwidth_gbps=25.0, latency_cycles=25.0,
                        packet_size_bytes=512, efficiency=0.94,
                        message_quantum_bytes=None)
    NETWORK = NetworkConfig(local_link=CONFIG, package_link=CONFIG,
                            flit_width_bits=1024, router_latency_cycles=1.0,
                            vcs_per_vnet=50, buffers_per_vc=1)

    def _bounds(self, size):
        """The message's flit boundaries, from its plan at an idle port."""
        backend = DetailedBackend(EventQueue(), self.NETWORK)
        link = Link(0, 1, self.CONFIG)
        backend.send(0, 1, size, [link], 0, lambda record: None)
        picks, end = _picks(backend._ports[link.link_id]._burst)
        return [start for _size, _ser, start in picks] + [end]

    def _drive(self, burst, size, at, armed):
        """Send ``size`` at 0 and 1000 B at ``at``, that send scheduled at
        ``armed``; fingerprint the port."""
        events = EventQueue()
        backend = (DetailedBackend if burst else _PerFlitBackend)(events,
                                                                 self.NETWORK)
        link = Link(0, 1, self.CONFIG)
        delivered = {}

        def on_delivered(record):
            delivered[record[4]] = events.now.hex()

        def send(tag, size):
            return lambda: backend.send(0, 1, size, [link], tag, on_delivered)

        events.schedule_at(0.0, send(0, size))
        events.schedule_at(armed, lambda: events.schedule_at(at, send(1, 1000.0)))
        events.run()
        port = backend._ports[link.link_id]
        return {
            "delivered": delivered,
            "flits_sent": port.flits_sent,
            "bytes": link.stats.bytes.hex(),
            "busy_cycles": link.stats.busy_cycles.hex(),
            "simulated": events.events_simulated,
        }

    @pytest.mark.parametrize("size", [49 * 512 + 176.0, 49 * 512 + 100.0],
                             ids=["last_176B", "last_100B"])
    @pytest.mark.parametrize("where", ["first_flit", "mid_burst",
                                       "last_flit_start"])
    def test_split_matches_per_flit_path(self, monkeypatch, size, where):
        bounds = self._bounds(size)
        middle = len(bounds) // 2
        at, armed = {
            "first_flit": (bounds[1] / 2, 0.0),
            "mid_burst": ((bounds[middle] + bounds[middle + 1]) / 2, 0.0),
            # Armed after the next-to-last flit started, as the per-flit
            # path's re-arbitration at its end was (the boundary tie of
            # TestSimultaneousEventDivergence does not arise).
            "last_flit_start": (bounds[-2], (bounds[-3] + bounds[-2]) / 2),
        }[where]
        splits = []
        split = router.TxPort._split_burst
        monkeypatch.setattr(router.TxPort, "_split_burst",
                            lambda port: (splits.append(port), split(port)))
        on = self._drive(True, size, at, armed)
        off = self._drive(False, size, at, armed)
        assert on == off
        assert len(on["delivered"]) == 2
        assert splits


#: The 2x4x4 torus 1 MB all-reduce (``preferred_set_splits=4``) as the
#: backend produced it while every flit was still a Python object.
FULL_SCALE_CYCLES = "0x1.32b3ea3677f1ap+15"  # 39257.95744681191
FULL_SCALE_MESSAGES = 1792
FULL_SCALE_FLITS = 1_048_576
FULL_SCALE_LOGICAL_EVENTS = 2_098_944
FULL_SCALE_DISPATCHES = 5568


def test_full_scale_allreduce_pinned():
    spec = torus_platform(TorusShape(2, 4, 4), preferred_set_splits=4)
    spec.backend_factory = lambda events, network, sanitizer: DetailedBackend(
        events, network, sanitizer=sanitizer)
    result = run_collective(spec, CollectiveOp.ALL_REDUCE, 1024 * KB)
    system = result.system
    assert result.duration_cycles.hex() == FULL_SCALE_CYCLES
    assert system.backend.messages_delivered == FULL_SCALE_MESSAGES
    assert system.backend.total_flits_sent == FULL_SCALE_FLITS
    assert system.events.events_simulated == FULL_SCALE_LOGICAL_EVENTS
    assert system.events.events_processed == FULL_SCALE_DISPATCHES


#: The 1x8x8 torus 64 KB all-reduce (``torus_platform`` defaults): every
#: message is two packets of two flits, each its own burst at an idle port.
SMALL_MESSAGE_CYCLES = "0x1.9f98d9df51b34p+12"  # 6649.5531914893545
SMALL_MESSAGE_MESSAGES = 28_672
SMALL_MESSAGE_FLITS = 114_688
SMALL_MESSAGE_LOGICAL_EVENTS = 258_048
SMALL_MESSAGE_DISPATCHES = 88_064


def test_small_message_allreduce_pinned():
    spec = torus_platform(TorusShape(1, 8, 8))
    spec.backend_factory = lambda events, network, sanitizer: DetailedBackend(
        events, network, sanitizer=sanitizer)
    result = run_collective(spec, CollectiveOp.ALL_REDUCE, 64 * KB)
    system = result.system
    assert result.duration_cycles.hex() == SMALL_MESSAGE_CYCLES
    assert system.backend.messages_delivered == SMALL_MESSAGE_MESSAGES
    assert system.backend.total_flits_sent == SMALL_MESSAGE_FLITS
    assert system.events.events_simulated == SMALL_MESSAGE_LOGICAL_EVENTS
    assert system.events.events_processed == SMALL_MESSAGE_DISPATCHES


class TestSimultaneousEventDivergence:
    """Where bursts and the per-flit path order simultaneous events apart.

    A burst decides at plan time what the per-flit path decides through
    the sequence numbers of events that share a timestamp, so these cases
    differ.  Each is strict: it fails once the two paths agree.
    """

    @pytest.mark.xfail(strict=True, reason="a send landing exactly on a "
                       "flit boundary: the burst counts the flit starting "
                       "then as sent, the per-flit path (the send was "
                       "scheduled first) re-arbitrates before it")
    def test_send_on_a_flit_boundary(self):
        params = {"bandwidth_gbps": 128.0, "latency_cycles": 0.0,
                  "packet_size_bytes": 512, "efficiency": 1.0,
                  "flit_width_bits": 1024, "router_latency_cycles": 0.0,
                  "vcs_per_vnet": 2, "buffers_per_vc": 1}
        traffic = [(0, 1, 512.0, 0.0), (0, 1, 512.0, 2.0)]
        on = _drive(("mesh", 2), params, traffic, True, False)
        off = _drive(("mesh", 2), params, traffic, False, False)
        assert on["delivered"] == off["delivered"]

    @pytest.mark.xfail(strict=True, reason="deliveries from several ports "
                       "on one timestamp fire in plan order with bursts, so "
                       "the collective sends its next messages in another "
                       "order and VC assignment differs")
    def test_torus_4x2x1_allreduce_300kb(self):
        def make_spec():
            return torus_platform(TorusShape(4, 2, 1), preferred_set_splits=4)

        on = _run(make_spec, CollectiveOp.ALL_REDUCE, 300 * KB, burst=True)
        off = _run(make_spec, CollectiveOp.ALL_REDUCE, 300 * KB, burst=False)
        assert on[0] == off[0]
