"""Reliable transport: timeout/retry/backoff over a faulty network.

Covers the acceptance scenarios of the fault-injection work: a transient
link flap heals through retransmission with deterministic stats on both
backends; a permanent directed failure reroutes along the surviving ring
direction; a bidirectional cut fails fast naming the dead link and the
stuck ranks.  The no-fault pass-through (wrapping must not change a
single cycle) is asserted by ``benchmarks/bench_transport_overhead.py``
and spot-checked here.
"""

from dataclasses import replace

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import LinkConfig, NetworkConfig, TorusShape, TransportConfig
from repro.config.presets import paper_simulation_config
from repro.errors import CollectiveError, ConfigError, TransportError
from repro.events.engine import EventQueue
from repro.harness.runners import run_collective, torus_platform
from repro.network.detailed.backend import DetailedBackend
from repro.network.fast_backend import FastBackend
from repro.network.fault_schedule import FaultSchedule, FaultState
from repro.network.link import Link
from repro.sanitize.runtime import RuntimeSanitizer
from repro.system.sys_layer import System
from repro.system.transport import ReliableTransport, TransportFailure
from repro.topology.logical import build_torus_topology

IDEAL = LinkConfig(bandwidth_gbps=128.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL)

#: Aggressive knobs so failure paths resolve in a few thousand cycles.
FAST_FAIL = TransportConfig(timeout_cycles=2000, timeout_per_byte=0.5,
                            max_retries=2, backoff_base_cycles=100,
                            backoff_max_cycles=1000)


def with_transport(spec, transport=None):
    spec.config = replace(
        spec.config,
        system=replace(spec.config.system,
                       transport=transport or TransportConfig()))
    return spec


class TestTransportConfig:
    def test_defaults_valid(self):
        cfg = TransportConfig()
        assert cfg.max_retries >= 1

    @pytest.mark.parametrize("kwargs", [
        {"timeout_cycles": 0},
        {"timeout_per_byte": -1.0},
        {"max_retries": -1},
        {"backoff_factor": 0.5},
        {"backoff_base_cycles": 100, "backoff_max_cycles": 10},
        {"jitter": 1.5},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TransportConfig(**kwargs)


class TestUnitTransport:
    def make(self, config=None, faults=None):
        events = EventQueue()
        backend = FastBackend(events, NET)
        if faults is not None:
            backend.faults = faults
        transport = ReliableTransport(backend, config or TransportConfig())
        return events, backend, transport

    def test_healthy_delivery_no_retries(self):
        events, _backend, transport = self.make()
        link = Link(0, 1, IDEAL)
        delivered = []
        transport.send(0, 1, 4096.0, [link], "t", delivered.append)
        events.run()
        assert len(delivered) == 1
        stats = transport.snapshot_stats()
        assert stats.messages == 1 and stats.sends == 1
        assert stats.retries == 0 and stats.timeouts == 0

    def test_recovers_after_transient_loss(self):
        faults = FaultState()
        faults.down.add((0, 1))
        events, _backend, transport = self.make(config=FAST_FAIL,
                                                faults=faults)
        events.schedule_at(3000, lambda: faults.down.discard((0, 1)))
        link = Link(0, 1, IDEAL)
        delivered = []
        transport.send(0, 1, 1024.0, [link], "t", delivered.append)
        events.run()
        assert len(delivered) == 1
        stats = transport.snapshot_stats()
        assert stats.retries >= 1
        assert stats.recovered == 1
        assert stats.failed == 0
        assert stats.drops >= 1

    def test_budget_exhaustion_raises_without_callback(self):
        faults = FaultState()
        faults.down.add((0, 1))
        events, _backend, transport = self.make(config=FAST_FAIL,
                                                faults=faults)
        link = Link(0, 1, IDEAL)
        transport.send(0, 1, 1024.0, [link], "t", lambda record: None)
        with pytest.raises(TransportError, match="0->1"):
            events.run()

    def test_budget_exhaustion_invokes_on_failed(self):
        faults = FaultState()
        faults.down.add((0, 1))
        events, _backend, transport = self.make(config=FAST_FAIL,
                                                faults=faults)
        link = Link(0, 1, IDEAL)
        failures: list[TransportFailure] = []
        transport.send(0, 1, 1024.0, [link], "t", lambda record: None,
                       on_failed=failures.append)
        events.run()
        assert len(failures) == 1
        failure = failures[0]
        assert failure.attempts == 1 + FAST_FAIL.max_retries
        assert failure.dead_links == [(0, 1)]
        assert "link 0->1 down" in failure.describe()
        assert transport.snapshot_stats().failed == 1

    def test_faults_setter_reaches_inner_backend(self):
        events, backend, transport = self.make()
        state = FaultState()
        transport.faults = state
        assert backend.faults is state
        assert transport.faults is state

    def test_delegates_backend_surface(self):
        _events, backend, transport = self.make()
        assert transport.now == backend.now
        assert transport.supports_failure_callback


def run_flap(seed=0, size=1024 * 1024):
    """1 MB all-reduce on a symmetric 8-ring with a link flap mid-run."""
    spec = with_transport(torus_platform(TorusShape(1, 8, 1)))
    spec.fault_schedule = FaultSchedule.from_dict({
        "seed": seed,
        "events": [
            {"time": 1000, "action": "link_down", "link": [1, 2]},
            {"time": 400_000, "action": "link_up", "link": [1, 2]},
        ],
    })
    return run_collective(spec, CollectiveOp.ALL_REDUCE, size, sanitize=True)


class TestTransientFlap:
    def test_completes_with_retries_and_is_deterministic(self):
        r1, r2 = run_flap(), run_flap()
        stats = r1.transport_stats
        assert stats.retries > 0
        assert stats.recovered > 0
        assert stats.failed == 0
        assert r1.duration_cycles == r2.duration_cycles
        assert stats.as_dict() == r2.transport_stats.as_dict()

    def test_no_fault_run_has_silent_transport(self):
        spec = with_transport(torus_platform(TorusShape(1, 8, 1)))
        plain = torus_platform(TorusShape(1, 8, 1))
        wrapped = run_collective(spec, CollectiveOp.ALL_REDUCE, 1024 * 1024)
        bare = run_collective(plain, CollectiveOp.ALL_REDUCE, 1024 * 1024)
        assert wrapped.duration_cycles == bare.duration_cycles
        assert wrapped.transport_stats.retries == 0
        assert wrapped.transport_stats.timeouts == 0
        assert bare.transport_stats is None


class TestDetailedBackendFlap:
    def run(self, size=512 * 1024):
        config = paper_simulation_config()
        config = replace(config, system=replace(config.system,
                                                transport=TransportConfig()))
        topology = build_torus_topology(TorusShape(1, 4, 1), config.network,
                                        config.system)
        sanitizer = RuntimeSanitizer()
        sched = FaultSchedule.from_dict({"events": [
            {"time": 500, "action": "link_down", "link": [1, 2]},
            {"time": 120_000, "action": "link_up", "link": [1, 2]},
        ]})
        system = System(topology, config, sanitizer=sanitizer,
                        fault_schedule=sched,
                        backend_factory=lambda events, network, sanitizer:
                        DetailedBackend(events, network, sanitizer=sanitizer))
        coll = system.request_collective(CollectiveOp.ALL_REDUCE, size)
        system.run_until_idle(max_events=50_000_000)
        assert coll.done
        sanitizer.verify_quiescent()
        return coll.duration_cycles, system.transport_stats().as_dict()

    def test_flit_level_flap_recovers_deterministically(self):
        t1, s1 = self.run()
        t2, s2 = self.run()
        assert (t1, s1) == (t2, s2)
        assert s1["retries"] > 0
        assert s1["drops"] > 0
        assert s1["failed"] == 0


class TestGracefulDegradation:
    def test_permanent_directed_failure_reroutes(self):
        spec = with_transport(torus_platform(TorusShape(1, 8, 1)), FAST_FAIL)
        spec.fault_schedule = FaultSchedule.from_dict({"events": [
            {"time": 1000, "action": "link_down", "link": [1, 2]}]})
        result = run_collective(spec, CollectiveOp.ALL_REDUCE, 64 * 1024,
                                sanitize=True)
        # Budget exhaustion is what triggers the reroute; the collective
        # still completes on the surviving (counter-rotating) direction.
        assert result.transport_stats.failed > 0
        assert result.duration_cycles > 0

    def test_bidirectional_cut_fails_fast_with_diagnostic(self):
        spec = with_transport(torus_platform(TorusShape(1, 4, 1)), FAST_FAIL)
        spec.fault_schedule = FaultSchedule.from_dict({"events": [
            {"time": 1000, "action": "link_down", "link": [1, 2]},
            {"time": 1000, "action": "link_down", "link": [2, 1]},
            {"time": 1000, "action": "link_down", "link": [0, 1]},
            {"time": 1000, "action": "link_down", "link": [1, 0]}]})
        with pytest.raises(CollectiveError) as exc:
            run_collective(spec, CollectiveOp.ALL_REDUCE, 64 * 1024)
        text = str(exc.value)
        assert "cannot make progress" in text
        assert "stuck ranks" in text
        assert "transport gave up" in text


class TestCliIntegration:
    def test_fault_schedule_flag_end_to_end(self, tmp_path, capsys):
        import json

        from repro.cli import main

        sched = tmp_path / "flap.json"
        sched.write_text(json.dumps({
            "events": [
                {"time": 1000, "action": "link_down", "link": [1, 2]},
                {"time": 400_000, "action": "link_up", "link": [1, 2]},
            ]}))
        rc = main(["collective", "--topology", "Torus", "--shape", "1x8x1",
                   "--op", "allreduce", "--size-mb", "1",
                   "--fault-schedule", str(sched), "--sanitize"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "retries" in out
