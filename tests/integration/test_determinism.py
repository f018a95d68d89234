"""Run-to-run determinism regression tests.

The simulator must be bit-identical across repeated runs in one process:
the event queue tie-breaks same-time events by schedule order, and no
component may key behavior off process-global state (ids, global
counters, hash order).  Each test runs the same workload twice on fresh
platforms and demands identical event counts, finish times and stats.
"""

import math

from repro.collectives import CollectiveContext, RingAllReduce
from repro.collectives.types import CollectiveOp
from repro.config import LinkConfig, NetworkConfig
from repro.config.parameters import AllToAllShape, TorusShape
from repro.events import EventQueue
from repro.harness.runners import alltoall_platform, torus_platform
from repro.network import Link, RingChannel
from repro.network.detailed import DetailedBackend
from repro.sanitize import RuntimeSanitizer

IDEAL = LinkConfig(bandwidth_gbps=128.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL,
                    vcs_per_vnet=8, buffers_per_vc=64)


def breakdown_snapshot(breakdown):
    """Everything the Fig. 12b stats depend on, in comparable form."""
    return {
        "phases": {
            phase: (s.messages, s.queue_cycles, s.network_cycles, s.bytes)
            for phase, s in sorted(breakdown.phase_stats.items())
        },
        # Count and exact total, not the raw list: compaction points may
        # differ between schedules while the exact sum cannot.
        "ready": (breakdown.ready_queue_count,
                  math.fsum(breakdown.ready_queue_delays)),
    }


def run_fast(platform_builder, op, size):
    system = platform_builder().build_system()
    collective = system.request_collective(op, size)
    system.run_until_idle(max_events=50_000_000)
    return {
        "events": system.events.events_processed,
        "finished_at": collective.finished_at,
        "duration": collective.duration_cycles,
        "breakdown": breakdown_snapshot(system.breakdown),
    }


def run_detailed(n=4, size=16 * 1024, sanitize=False):
    sanitizer = RuntimeSanitizer() if sanitize else None
    events = (sanitizer.make_event_queue() if sanitizer is not None
              else EventQueue())
    links = [Link(i, (i + 1) % n, IDEAL) for i in range(n)]
    ring = RingChannel(list(range(n)), links)
    backend = DetailedBackend(events, NET, sanitizer=sanitizer)
    ctx = CollectiveContext(backend, reduction_cycles_per_kb=0.0)
    algo = RingAllReduce(ctx, ring, size)
    algo.start_all()
    events.run(max_events=5_000_000)
    assert algo.done
    if sanitizer is not None:
        sanitizer.verify_quiescent()
    return {
        "events": events.events_processed,
        "finished_at": algo.finished_at,
        "flits": backend.total_flits_sent,
    }


class TestFastBackendDeterminism:
    def test_torus_allreduce_identical_twice(self):
        runs = [run_fast(lambda: torus_platform(TorusShape(2, 2, 2)),
                         CollectiveOp.ALL_REDUCE, 256 * 1024)
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_alltoall_platform_identical_twice(self):
        runs = [run_fast(lambda: alltoall_platform(AllToAllShape(2, 4)),
                         CollectiveOp.ALL_TO_ALL, 128 * 1024)
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestDetailedBackendDeterminism:
    def test_ring_allreduce_identical_twice(self):
        assert run_detailed() == run_detailed()

    def test_identical_with_and_without_interleaved_runs(self):
        """A run between two identical runs must not perturb them (no
        process-global counters leaking into simulation behavior)."""
        first = run_detailed(n=4)
        run_detailed(n=6)  # unrelated interleaved simulation
        second = run_detailed(n=4)
        assert first == second

    def test_sanitizer_does_not_change_results(self):
        plain = run_detailed(sanitize=False)
        checked = run_detailed(sanitize=True)
        assert plain == checked
