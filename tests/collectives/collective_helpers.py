"""Shared fixtures for collective algorithm tests: idealized platforms
where timing can be computed by hand."""

import pytest

from repro.collectives.context import CollectiveContext
from repro.config.parameters import LinkConfig, NetworkConfig
from repro.events.engine import EventQueue
from repro.network.channel import RingChannel, SwitchChannel
from repro.network.fast_backend import FastBackend
from repro.network.link import Link

#: 100 B/cycle, 50-cycle latency, no efficiency loss, no quantum overhead.
IDEAL_LINK = LinkConfig(bandwidth_gbps=100.0, latency_cycles=50.0,
                        packet_size_bytes=512, efficiency=1.0,
                        message_quantum_bytes=None)
IDEAL_NET = NetworkConfig(local_link=IDEAL_LINK, package_link=IDEAL_LINK)


def make_ring(n: int) -> RingChannel:
    nodes = list(range(n))
    links = [Link(i, (i + 1) % n, IDEAL_LINK) for i in range(n)]
    return RingChannel(nodes, links)


def make_switches(num_switches: int, nodes: list[int]) -> list[SwitchChannel]:
    switches = []
    base = max(nodes) + 1
    for s in range(num_switches):
        sid = base + s
        ups = {n: Link(n, sid, IDEAL_LINK) for n in nodes}
        downs = {n: Link(sid, n, IDEAL_LINK) for n in nodes}
        switches.append(SwitchChannel(sid, nodes, ups, downs))
    return switches


class Platform:
    """EventQueue + backend + context bundle for algorithm tests."""

    def __init__(self, endpoint_delay=10.0, reduction_per_kb=0.0, **ctx_kwargs):
        self.events = EventQueue()
        self.backend = FastBackend(self.events, IDEAL_NET)
        self.ctx = CollectiveContext(
            self.backend,
            endpoint_delay_cycles=endpoint_delay,
            reduction_cycles_per_kb=reduction_per_kb,
            **ctx_kwargs,
        )

    def run(self, max_events=5_000_000):
        self.events.run(max_events=max_events)


@pytest.fixture
def platform():
    return Platform()
