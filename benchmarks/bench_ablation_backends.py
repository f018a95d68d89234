"""Ablation — fast analytical backend vs detailed flit-level backend.

The fast backend is the default Garnet substitution; the detailed backend
validates it.  On an uncontended ring all-reduce both must agree closely
on simulated time while the detailed backend costs orders of magnitude
more wall-clock per simulated byte.
"""

import time

import pytest

from repro.collectives.context import CollectiveContext
from repro.collectives.ring_algorithms import RingAllReduce
from repro.config.parameters import LinkConfig, NetworkConfig
from repro.events.engine import EventQueue
from repro.network.channel import RingChannel
from repro.network.fast_backend import FastBackend
from repro.network.link import Link
from repro.network.detailed.backend import DetailedBackend

from bench_common import print_table, run_once

IDEAL = LinkConfig(bandwidth_gbps=128.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL, vcs_per_vnet=4,
                    buffers_per_vc=64)
SIZE = 64 * 1024


def run_backend(backend_cls):
    events = EventQueue()
    links = [Link(i, (i + 1) % 4, IDEAL) for i in range(4)]
    ring = RingChannel([0, 1, 2, 3], links)
    backend = backend_cls(events, NET)
    ctx = CollectiveContext(backend, reduction_cycles_per_kb=0.0)
    algo = RingAllReduce(ctx, ring, SIZE)
    wall_start = time.perf_counter()
    algo.start_all()
    events.run(max_events=10_000_000)
    wall = time.perf_counter() - wall_start
    assert algo.done
    return algo.finished_at, events.events_simulated, wall


def test_ablation_backend_agreement(benchmark):
    def compare():
        fast = run_backend(FastBackend)
        detailed = run_backend(DetailedBackend)
        return fast, detailed

    fast, detailed = run_once(benchmark, compare)
    rows = [
        {"backend": "fast", "sim_cycles": fast[0], "events": fast[1]},
        {"backend": "detailed", "sim_cycles": detailed[0], "events": detailed[1]},
    ]
    print_table("Ablation: backend agreement (64KB ring all-reduce)", rows)

    assert detailed[0] == pytest.approx(fast[0], rel=0.10), (
        "backends must agree on uncontended transfers")
    assert detailed[1] > 50 * fast[1], (
        "the flit-level backend should process vastly more events")
