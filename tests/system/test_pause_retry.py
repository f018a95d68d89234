"""node_pause × transport retry interplay.

A paused endpoint is flow control, not path failure: the fault layer
classifies those drops as ``node_paused`` and the transport waits them
out with backoff *without* charging the ``max_retries`` budget — a pause
outlasting the whole retry budget must still end in delivery once the
node resumes.  The ``max_paused_waits`` valve bounds the wait so a
watchdog-less run still terminates when the node never comes back.
"""

from dataclasses import replace

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import (
    ConfigError,
    LinkConfig,
    NetworkConfig,
    TorusShape,
    TransportConfig,
)
from repro.events.engine import EventQueue
from repro.harness.runners import run_collective, torus_platform
from repro.network.fast_backend import FastBackend
from repro.network.fault_schedule import FaultAction, FaultEvent, FaultSchedule, FaultState
from repro.network.link import Link
from repro.system.transport import ReliableTransport

IDEAL = LinkConfig(bandwidth_gbps=128.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL)

#: One retry of budget, short timers: a multi-timeout pause would exhaust
#: the budget immediately if paused drops were charged against it.
TIGHT = TransportConfig(timeout_cycles=1_000.0, timeout_per_byte=0.0,
                        max_retries=1, backoff_base_cycles=100.0,
                        backoff_factor=1.0, backoff_max_cycles=100.0,
                        jitter=0.0, max_paused_waits=1_000)


def make_transport(config=TIGHT):
    events = EventQueue()
    backend = FastBackend(events, NET)
    backend.faults = FaultState()
    transport = ReliableTransport(backend, config)
    return events, backend.faults, transport


class TestPausedDestination:
    def test_pause_outlasting_retry_budget_still_delivers(self):
        """Ten timeout windows of pause >> max_retries=1, yet the message
        must arrive after the resume without on_failed ever firing."""
        events, faults, transport = make_transport()
        faults.paused.add(1)
        events.schedule_at(12_000.0, lambda: faults.paused.discard(1))

        delivered, failures = [], []
        transport.send(0, 1, 512.0, [Link(0, 1, IDEAL)], "t", delivered.append,
                       on_failed=failures.append)
        events.run(max_events=100_000)

        assert len(delivered) == 1
        assert not failures
        stats = transport.snapshot_stats()
        assert stats.paused_waits > TIGHT.max_retries
        assert stats.failed == 0
        assert stats.recovered == 1

    def test_paused_waits_not_counted_as_retries(self):
        """The retries counter tracks budget consumption only; waiting out
        a pause is accounted separately (paused_waits)."""
        events, faults, transport = make_transport()
        faults.paused.add(1)
        events.schedule_at(5_000.0, lambda: faults.paused.discard(1))

        delivered = []
        transport.send(0, 1, 512.0, [Link(0, 1, IDEAL)], "t", delivered.append,
                       on_failed=lambda f: pytest.fail(f.describe()))
        events.run(max_events=100_000)

        stats = transport.snapshot_stats()
        assert delivered
        assert stats.paused_waits >= 3
        assert stats.retries == 0, (
            "paused-endpoint waits must not consume the retry budget")

    def test_never_resuming_node_hits_the_valve(self):
        """max_paused_waits bounds the wait: a permanent pause fails with
        the pause named as the loss reason instead of looping forever."""
        config = replace(TIGHT, max_paused_waits=4)
        events, faults, transport = make_transport(config)
        faults.paused.add(1)

        failures = []
        transport.send(0, 1, 512.0, [Link(0, 1, IDEAL)], "t",
                       lambda record: pytest.fail("must not deliver"),
                       on_failed=failures.append)
        events.run(max_events=100_000)

        assert len(failures) == 1
        assert "paused" in failures[0].reason
        stats = transport.snapshot_stats()
        assert stats.failed == 1
        assert stats.paused_waits == 5  # 4 allowed waits + the fatal one

    def test_link_down_still_burns_budget_while_pause_does_not(self):
        """Mixed history: drops during the pause are free; once the path
        turns into a real link failure, max_retries applies from there."""
        events, faults, transport = make_transport()
        faults.paused.add(1)
        # Resume the node but kill the link at the same moment: the
        # remaining attempts are real path failures.
        def flip():
            faults.paused.discard(1)
            faults.down.add((0, 1))
        events.schedule_at(5_000.0, flip)

        failures = []
        transport.send(0, 1, 512.0, [Link(0, 1, IDEAL)], "t",
                       lambda record: pytest.fail("must not deliver"),
                       on_failed=failures.append)
        events.run(max_events=100_000)

        assert len(failures) == 1
        assert "down" in failures[0].reason
        stats = transport.snapshot_stats()
        # Budget consumed by the post-resume attempts only.
        assert stats.paused_waits >= 3
        assert stats.retries <= TIGHT.max_retries

    def test_max_paused_waits_validated(self):
        with pytest.raises(ConfigError):
            TransportConfig(max_paused_waits=-1)


class TestSystemLevelPause:
    def spec(self):
        spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
        spec.config = replace(
            spec.config,
            system=replace(
                spec.config.system,
                transport=TransportConfig(timeout_cycles=2_000.0,
                                          timeout_per_byte=0.1,
                                          max_retries=2,
                                          backoff_base_cycles=500.0,
                                          backoff_max_cycles=2_000.0,
                                          jitter=0.0)))
        spec.fault_schedule = FaultSchedule([
            FaultEvent(time=500.0, action=FaultAction.NODE_PAUSE, node=3),
            FaultEvent(time=30_000.0, action=FaultAction.NODE_RESUME, node=3),
        ])
        return spec

    def test_collective_survives_long_pause(self):
        """The pause spans many timeout windows with max_retries=2; the
        collective must complete after the resume, not fail spuriously."""
        result = run_collective(self.spec(), CollectiveOp.ALL_REDUCE,
                                256 * 1024)
        stats = result.transport_stats
        assert stats.paused_waits > 0
        assert stats.failed == 0
        assert result.duration_cycles > 30_000.0  # waited for the resume

    def test_pause_recovery_is_deterministic(self):
        a = run_collective(self.spec(), CollectiveOp.ALL_REDUCE, 256 * 1024)
        b = run_collective(self.spec(), CollectiveOp.ALL_REDUCE, 256 * 1024)
        assert a.duration_cycles == b.duration_cycles
        assert a.transport_stats.as_dict() == b.transport_stats.as_dict()
