"""Watchdog stall detection: trips on retry storms, silent on health.

The stall scenario: a node pauses forever while the transport's
``max_paused_waits`` valve is huge, so retransmission timers fire for
eternity without a single delivery — exactly the "events keep firing,
nothing happens" hang the watchdog exists to kill.
"""

import json
from dataclasses import replace

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape, TransportConfig
from repro.errors import ConfigError, StallError
from repro.events.engine import EventQueue
from repro.harness.runners import run_collective, torus_platform
from repro.network.fault_schedule import FaultAction, FaultEvent, FaultSchedule
from repro.resilience.watchdog import Watchdog, WatchdogConfig
from repro.service.progress import ProgressWriter

#: Tight timers so the stall develops (and is detected) quickly.
STORMY = TransportConfig(timeout_cycles=2_000.0, timeout_per_byte=0.1,
                         max_retries=3, backoff_base_cycles=500.0,
                         backoff_max_cycles=5_000.0, jitter=0.0,
                         max_paused_waits=10**9)


def stalling_spec(bundle_dir=None):
    """A platform where node 3 pauses at t=1000 and never resumes."""
    spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
    spec.config = replace(
        spec.config, system=replace(spec.config.system, transport=STORMY))
    spec.fault_schedule = FaultSchedule([
        FaultEvent(time=1_000.0, action=FaultAction.NODE_PAUSE, node=3),
    ])
    spec.watchdog = WatchdogConfig(stall_cycles=50_000.0,
                                   check_every_events=16,
                                   bundle_dir=bundle_dir)
    return spec


class TestStallDetection:
    def test_retry_storm_trips_stall_error(self):
        with pytest.raises(StallError, match="no progress"):
            run_collective(stalling_spec(), CollectiveOp.ALL_REDUCE,
                           256 * 1024, max_events=2_000_000)

    def test_bundle_written_with_diagnostics(self, tmp_path):
        with pytest.raises(StallError, match="diagnostic bundle"):
            run_collective(stalling_spec(bundle_dir=str(tmp_path)),
                           CollectiveOp.ALL_REDUCE, 256 * 1024,
                           max_events=2_000_000)
        bundles = sorted(tmp_path.glob("stall-*.json"))
        assert len(bundles) == 1
        data = json.loads(bundles[0].read_text())
        assert "wait-for summary" in data["wait_for"]
        assert data["diagnostics"]["faults"]["paused_nodes"] == [3]
        assert data["diagnostics"]["transport"]["paused_waits"] > 0
        assert data["stalled_for_cycles"] >= 50_000.0

    def test_detailed_stall_reports_events_simulated(self, tmp_path):
        """On the detailed backend a flit burst is one executed event
        standing for many logical ones; the trip reports the logical
        count, the one the watchdog paces on.  Bursts run only without
        faults, so the stall here is a window shorter than one burst."""
        from repro.network.detailed.backend import DetailedBackend

        spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
        spec.backend_factory = lambda events, network, sanitizer: DetailedBackend(
            events, network, sanitizer=sanitizer)
        spec.watchdog = WatchdogConfig(stall_cycles=1_000.0, check_every_events=1,
                                       bundle_dir=str(tmp_path))
        systems = []
        with pytest.raises(StallError) as raised:
            run_collective(spec, CollectiveOp.ALL_REDUCE, 1024 * 1024,
                           on_system=systems.append)
        queue = systems[0].events
        assert queue.events_simulated > queue.events_processed
        assert systems[0].watchdog.tripped.events_simulated == queue.events_simulated
        assert f"({queue.events_simulated} events simulated)" in str(raised.value)
        bundle = tmp_path / f"stall-{queue.events_simulated:012d}.json"
        assert json.loads(bundle.read_text())["events_simulated"] == queue.events_simulated

    def test_progress_writer_does_not_silence_the_watchdog(self, tmp_path):
        """The watchdog and a service progress writer both watch one
        queue: binding the writer after the system is built must not
        replace the watchdog, which trips on a 1-cycle stall bound."""
        spec = torus_platform(TorusShape(2, 2, 2))
        spec.watchdog = WatchdogConfig(stall_cycles=1.0, check_every_events=1)
        path = tmp_path / "progress.json"
        writer = ProgressWriter(str(path), every_events=1)
        with pytest.raises(StallError, match="no progress"):
            run_collective(spec, CollectiveOp.ALL_REDUCE, 64 * 1024,
                           on_system=writer.bind)
        snapshot = json.loads(path.read_text())
        assert snapshot["done"] is False
        assert snapshot["events_simulated"] > 0

    def test_healthy_run_never_trips_and_is_cycle_identical(self):
        """Criterion 5 spot-check: the watchdog observes through the
        queue watcher, so enabling it must not move a single cycle.  The
        watchdog keeps the full run, so the bare run gets a caller's
        queue, which keeps it full too (a quotient run executes NPU 0's
        events alone)."""
        def run(watchdog):
            spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
            if watchdog:
                spec.watchdog = WatchdogConfig(stall_cycles=5_000.0,
                                               check_every_events=1)
                return run_collective(spec, CollectiveOp.ALL_REDUCE, 256 * 1024)
            return run_collective(spec, CollectiveOp.ALL_REDUCE, 256 * 1024,
                                  events=EventQueue())

        bare = run(watchdog=False)
        watched = run(watchdog=True)
        assert watched.duration_cycles == bare.duration_cycles
        assert watched.system.now == bare.system.now
        assert (watched.system.events.events_processed
                == bare.system.events.events_processed)


class _SampledSystem:
    """The part of a System an observer reads; records each sample's
    logical-event count."""

    def __init__(self, events: EventQueue):
        self.events = events
        self.samples: list[int] = []

    @property
    def now(self) -> float:
        return self.events.now

    def progress_vector(self) -> tuple:
        self.samples.append(self.events.events_simulated)
        return (len(self.samples),)


def _batched_run(install) -> list[int]:
    """Ten events that each stand for ten logical events (a flit burst
    crediting nine more), observed by ``install(system)``."""
    events = EventQueue()
    system = _SampledSystem(events)
    install(system)
    for i in range(10):
        events.schedule_at(float(i), lambda: events.credit_batched(9))
    events.run()
    return system.samples


class TestLogicalEventPacing:
    """Observers pace on ``events_simulated``, as ``max_events`` does."""

    def test_watchdog_samples_every_check_every_events_logical_events(self):
        def install(system):
            watchdog = Watchdog(system, WatchdogConfig(check_every_events=25))
            system.events.watch(watchdog.note_event)
            system.watchdog = watchdog  # the watchdog holds its system weakly

        assert _batched_run(install) == [30, 60, 90]

    def test_progress_writer_samples_every_every_events_logical_events(self, tmp_path):
        def install(system):
            ProgressWriter(str(tmp_path / "progress.json"), every_events=25).bind(system)

        # The first sample is bind's initial snapshot.
        assert _batched_run(install) == [0, 30, 60, 90]
        snapshot = json.loads((tmp_path / "progress.json").read_text())
        assert snapshot["events_simulated"] == 90


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"stall_cycles": 0.0},
        {"check_every_events": 0},
        {"stall_cycles": -1.0},
        {"check_every_events": -16},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WatchdogConfig(**kwargs)
