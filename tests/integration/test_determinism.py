"""Run-to-run determinism regression tests.

The simulator must be bit-identical across repeated runs in one process:
the event queue tie-breaks same-time events by schedule order, and no
component may key behavior off process-global state (ids, global
counters, hash order).  Each test runs the same workload twice on fresh
platforms and demands identical event counts, finish times and stats.
"""

import math
from dataclasses import replace

import pytest

from repro.collectives.context import CollectiveContext
from repro.collectives.ring_algorithms import RingAllReduce
from repro.collectives.types import CollectiveOp
from repro.config.parameters import (
    AllToAllShape,
    LinkConfig,
    NetworkConfig,
    TorusShape,
    TransportConfig,
)
from repro.events.engine import EventQueue
from repro.harness.runners import alltoall_platform, run_collective, torus_platform
from repro.network.channel import RingChannel
from repro.network.detailed.backend import DetailedBackend
from repro.network.fault_schedule import FaultAction, FaultEvent, FaultSchedule
from repro.network.link import Link
from repro.sanitize.runtime import RuntimeSanitizer

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
    events = EventQueue()
    if sanitizer is not None:
        sanitizer.watch(events)
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


def recoverable_schedule(horizon):
    """A lossy link plus a flap, all healed within ``horizon`` cycles, so
    the run completes (with retransmissions) rather than failing."""
    return FaultSchedule([
        FaultEvent(time=0.0, action=FaultAction.DROP, link=(0, 1),
                   probability=0.2),
        FaultEvent(time=horizon * 0.1, action=FaultAction.LINK_DOWN,
                   link=(1, 0)),
        FaultEvent(time=horizon * 0.6, action=FaultAction.LINK_UP,
                   link=(1, 0)),
    ], seed=11)


#: Per backend: (all-reduce bytes, fault horizon in cycles).
FAULTY_RUNS = {"fast": (256 * 1024, 8_000.0), "detailed": (16 * 1024, 2_000.0)}


def run_faulty(backend):
    """A 2x2x2 all-reduce through the reliable transport under
    :func:`recoverable_schedule`; everything the drop RNG, the retry
    timers and the fault state can perturb, in comparable form."""
    size, horizon = FAULTY_RUNS[backend]
    spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
    spec.config = replace(
        spec.config,
        system=replace(spec.config.system, transport=TransportConfig()))
    spec.fault_schedule = recoverable_schedule(horizon)
    if backend == "detailed":
        spec.backend_factory = (
            lambda events, network, sanitizer:
            DetailedBackend(events, network, sanitizer=sanitizer))
    result = run_collective(spec, CollectiveOp.ALL_REDUCE, size)
    system = result.system
    return {
        "duration": result.duration_cycles,
        "delivered": system.backend.messages_delivered,
        "bytes": system.backend.bytes_delivered,
        "dropped": system.backend.messages_dropped,
        "transport": system.transport_stats().as_dict(),
        # Includes the drop-RNG fingerprint.
        "faults": system.fault_state.snapshot(),
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


class TestFaultyRunDeterminism:
    @pytest.mark.parametrize("backend", ["fast", "detailed"])
    def test_identical_twice(self, backend):
        """Drop RNG, retry timers and fault state replay identically."""
        first = run_faulty(backend)
        if backend == "fast":
            assert first["transport"]["retries"] > 0, "faults must bite"
        assert first == run_faulty(backend)
