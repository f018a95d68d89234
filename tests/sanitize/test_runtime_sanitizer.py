"""Tests for the runtime invariant checkers (repro.sanitize.runtime).

Each checker class gets a deliberately injected violation — corrupted
event heap, stolen flit, lost credit, duplicated delivery, barrier over-arrival,
truncated run — plus clean end-to-end runs on both backends proving the
sanitizer stays silent on healthy simulations.
"""

import heapq
from collections import deque

import pytest

from repro.collectives.context import CollectiveContext
from repro.collectives.ring_algorithms import RingAllReduce
from repro.collectives.types import CollectiveOp
from repro.config.parameters import LinkConfig, NetworkConfig, TorusShape
from repro.errors import SanitizerError
from repro.events.engine import CountdownBarrier, EventQueue, _ScheduledEvent
from repro.harness.runners import run_collective, torus_platform
from repro.network.channel import RingChannel
from repro.network.detailed.backend import DetailedBackend
from repro.network.link import Link
from repro.sanitize.runtime import RuntimeSanitizer, SanitizerConfig
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology

IDEAL = LinkConfig(bandwidth_gbps=128.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL,
                    vcs_per_vnet=4, buffers_per_vc=16)


class TestEventOrderCheck:
    def test_normal_run_is_clean(self):
        q = EventQueue()
        RuntimeSanitizer().watch(q)
        fired = []
        q.schedule_at(1.0, lambda: fired.append(1))
        q.schedule_at(2.0, lambda: fired.append(2))
        q.run()
        assert fired == [1, 2]

    def test_time_travel_detected(self):
        q = EventQueue()
        RuntimeSanitizer().watch(q)
        q.schedule_at(10.0, lambda: None)
        q.run()
        # Corrupt the queue behind schedule_at's back: a bucket in the past.
        stale = _ScheduledEvent(time=5.0, tiebreak=0, seq=-1, callback=lambda: None)
        q._buckets[stale.time] = deque([stale])
        heapq.heappush(q._heap, stale.time)
        with pytest.raises(SanitizerError, match="time-travel"):
            q.step()

    def test_zero_delay_livelock_detected(self):
        sanitizer = RuntimeSanitizer(SanitizerConfig(livelock_threshold=50))
        q = EventQueue()
        sanitizer.watch(q)

        def respawn():
            q.schedule(0.0, respawn)

        q.schedule_at(1.0, respawn)
        with pytest.raises(SanitizerError, match="livelock"):
            q.run(max_events=10_000)

    def test_livelock_stops_before_the_offending_event(self):
        sanitizer = RuntimeSanitizer(SanitizerConfig(livelock_threshold=3))
        q = EventQueue()
        sanitizer.watch(q)
        fired = []
        for i in range(5):
            q.schedule_at(1.0, lambda i=i: fired.append(i))
        with pytest.raises(SanitizerError, match="livelock"):
            q.run()
        assert fired == [0, 1, 2, 3]
        assert (q.now, q.events_processed, q.pending) == (1.0, 4, 1)

    def test_time_advance_resets_livelock_counter(self):
        sanitizer = RuntimeSanitizer(SanitizerConfig(livelock_threshold=10))
        q = EventQueue()
        sanitizer.watch(q)
        # 25 same-time bursts of 5 events each: never trips the threshold.
        for burst in range(25):
            for _ in range(5):
                q.schedule_at(float(burst), lambda: None)
        q.run()
        assert q.events_processed == 125

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        RuntimeSanitizer().watch(q)
        fired = []
        handle = q.schedule_at(1.0, lambda: fired.append("no"))
        q.schedule_at(2.0, lambda: fired.append("yes"))
        handle.cancel()
        q.run()
        assert fired == ["yes"]
        assert q.pending == 0

    @pytest.mark.parametrize("own_queue", [True, False],
                             ids=["system-queue", "caller-queue"])
    def test_system_checks_whatever_queue_it_runs(self, own_queue):
        """A one-event livelock bound trips on a collective's same-cycle
        events, on the system's own queue and on a caller's alike."""
        sanitizer = RuntimeSanitizer(SanitizerConfig(livelock_threshold=1))
        platform = torus_platform(TorusShape(2, 2, 2))
        topology = build_torus_topology(
            TorusShape(2, 2, 2), platform.config.network,
            platform.config.system)
        system = System(topology, platform.config, sanitizer=sanitizer,
                        events=None if own_queue else EventQueue())
        system.request_collective(CollectiveOp.ALL_REDUCE, 64 * 1024)
        with pytest.raises(SanitizerError, match="livelock"):
            system.run_until_idle()

    def test_bad_threshold_rejected(self):
        with pytest.raises(SanitizerError):
            SanitizerConfig(livelock_threshold=0)


class TestConservationChecker:
    def test_balanced_ledgers_are_clean(self):
        sanitizer = RuntimeSanitizer()
        sink = object()
        sanitizer.conservation.message_sent()
        sanitizer.conservation.flits_created(sink, 2, "0->1 tag='t'")
        sanitizer.conservation.flits_delivered(sink, 1)
        sanitizer.conservation.flits_delivered(sink, 1)
        sanitizer.conservation.message_delivered()
        assert sanitizer.quiescence_findings() == []
        sanitizer.verify_quiescent()

    def test_message_leak_detected(self):
        sanitizer = RuntimeSanitizer()
        sanitizer.conservation.message_sent()
        findings = sanitizer.quiescence_findings()
        assert [f.code for f in findings] == ["message-leak"]
        with pytest.raises(SanitizerError, match="message-leak"):
            sanitizer.verify_quiescent()

    def test_flit_leak_detected(self):
        sanitizer = RuntimeSanitizer()
        sink = object()
        sanitizer.conservation.flits_created(sink, 4, "0->3 tag='leak'")
        sanitizer.conservation.flits_delivered(sink, 1)
        findings = sanitizer.quiescence_findings()
        assert any(f.code == "flit-leak" and "3 of 4" in f.message
                   for f in findings)

    def test_duplicated_flit_raises_immediately(self):
        sanitizer = RuntimeSanitizer()
        sink = object()
        sanitizer.conservation.flits_created(sink, 1, "0->1 tag='dup'")
        sanitizer.conservation.flits_delivered(sink, 1)
        with pytest.raises(SanitizerError, match="flit conservation"):
            sanitizer.conservation.flits_delivered(sink, 1)

    def test_unmatched_credit_release_raises(self):
        sanitizer = RuntimeSanitizer()

        class FakePort:
            link = Link(0, 1, IDEAL)

        with pytest.raises(SanitizerError, match="credit"):
            sanitizer.conservation.on_credit_released(FakePort(), 0)

    def test_stolen_flit_leaks_on_detailed_backend(self):
        """Pop a queued flit mid-run: the sanitizer reports the leak."""
        sanitizer = RuntimeSanitizer()
        events = EventQueue()
        sanitizer.watch(events)
        n = 4
        links = [Link(i, (i + 1) % n, IDEAL) for i in range(n)]
        ring = RingChannel(list(range(n)), links)
        backend = DetailedBackend(events, NET, sanitizer=sanitizer)
        delivered = []
        backend.send(0, 2, 4096.0, ring.path(0, 2), "steal", delivered.append)

        def steal():
            for port in backend._ports.values():
                for queue in port.queues:
                    if queue:
                        queue.popleft()
                        return

        events.schedule(1.0, steal)
        events.run(max_events=100_000)
        assert not delivered
        codes = {f.code for f in sanitizer.quiescence_findings()}
        assert "flit-leak" in codes
        assert "message-leak" in codes
        with pytest.raises(SanitizerError):
            sanitizer.verify_quiescent()


    def test_lost_credit_leaks_on_detailed_backend(self):
        """Drop one credit on its way upstream: the sanitizer reports it."""
        sanitizer = RuntimeSanitizer()
        events = EventQueue()
        sanitizer.watch(events)
        n = 4
        links = [Link(i, (i + 1) % n, IDEAL) for i in range(n)]
        ring = RingChannel(list(range(n)), links)
        backend = DetailedBackend(events, NET, sanitizer=sanitizer)
        first_hop = backend._port_for(links[0])
        release = first_hop.release_credit
        lost = []

        def lossy_release(vc):
            if lost:
                release(vc)
            else:
                lost.append(vc)

        first_hop.release_credit = lossy_release
        delivered = []
        backend.send(0, 2, 4096.0, ring.path(0, 2), "lost-credit", delivered.append)
        events.run(max_events=100_000)
        assert [record[4] for record in delivered] == ["lost-credit"]
        findings = sanitizer.quiescence_findings()
        assert [f.code for f in findings] == ["credit-leak"]
        assert f"vc={lost[0]} holds 1 credits" in findings[0].message


class TestBarrierChecker:
    def test_over_arrival_raises_sanitizer_error(self):
        sanitizer = RuntimeSanitizer()
        barrier = CountdownBarrier(1, lambda: None, name="b",
                                   sanitizer=sanitizer)
        barrier.arrive()
        with pytest.raises(SanitizerError, match="over-arrival"):
            barrier.arrive()

    def test_under_arrival_reported_at_quiescence(self):
        sanitizer = RuntimeSanitizer()
        CountdownBarrier(3, lambda: None, name="stuck", sanitizer=sanitizer)
        findings = sanitizer.quiescence_findings()
        assert any(f.code == "barrier-under-arrival" and "stuck" in f.message
                   for f in findings)

    def test_completed_barriers_are_clean(self):
        sanitizer = RuntimeSanitizer()
        barrier = CountdownBarrier(2, lambda: None, sanitizer=sanitizer)
        barrier.arrive()
        barrier.arrive()
        assert sanitizer.quiescence_findings() == []
        assert sanitizer.barriers.registered == 1
        assert sanitizer.barriers.fired_count == 1


class TestDrainDeadlock:
    def test_truncated_run_reports_outstanding_collectives(self):
        sanitizer = RuntimeSanitizer()
        platform = torus_platform(TorusShape(2, 2, 2))
        topology = build_torus_topology(
            TorusShape(2, 2, 2), platform.config.network,
            platform.config.system)
        system = System(topology, platform.config, sanitizer=sanitizer)
        system.request_collective(CollectiveOp.ALL_REDUCE, 64 * 1024,
                                  name="stalled")
        for _ in range(10):
            system.events.step()
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.verify_quiescent(system)
        text = str(excinfo.value)
        assert "drain-deadlock" in text
        assert "wait-for summary" in text
        assert "stalled" in text


class TestCleanEndToEnd:
    def test_fast_backend_full_run_clean(self):
        platform = torus_platform(TorusShape(2, 2, 2))
        result = run_collective(platform, CollectiveOp.ALL_REDUCE,
                                256 * 1024, sanitize=True)
        assert result.duration_cycles > 0

    def test_fast_backend_alltoall_platform_clean(self):
        from repro.config.parameters import AllToAllShape
        from repro.harness.runners import alltoall_platform

        platform = alltoall_platform(AllToAllShape(2, 4))
        result = run_collective(platform, CollectiveOp.ALL_TO_ALL,
                                128 * 1024, sanitize=True)
        assert result.duration_cycles > 0

    def test_detailed_backend_full_run_clean(self):
        sanitizer = RuntimeSanitizer()
        events = EventQueue()
        sanitizer.watch(events)
        n = 4
        links = [Link(i, (i + 1) % n, IDEAL) for i in range(n)]
        ring = RingChannel(list(range(n)), links)
        backend = DetailedBackend(events, NET, sanitizer=sanitizer)
        ctx = CollectiveContext(backend, reduction_cycles_per_kb=0.0)
        algo = RingAllReduce(ctx, ring, 16 * 1024)
        algo.start_all()
        events.run(max_events=5_000_000)
        assert algo.done
        assert sanitizer.quiescence_findings() == []
        sanitizer.verify_quiescent()

    def test_training_run_clean(self):
        from repro.harness.runners import run_training
        from repro.models.mlp import mlp

        platform = torus_platform(TorusShape(2, 2, 1))
        model = mlp(compute=platform.config.compute)
        report, system = run_training(model, platform, num_iterations=1,
                                      sanitize=True)
        assert report.total_cycles > 0
        assert system.sanitizer is not None

    def test_disabled_sanitizer_leaves_no_trace(self):
        platform = torus_platform(TorusShape(2, 2, 1))
        system = platform.build_system()
        assert system.sanitizer is None
        assert type(system.events).__name__ == "EventQueue"
        assert system.backend.sanitizer is None
