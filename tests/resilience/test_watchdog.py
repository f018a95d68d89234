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
from repro.harness.runners import run_collective, torus_platform
from repro.network.fault_schedule import FaultAction, FaultEvent, FaultSchedule
from repro.resilience import WatchdogConfig

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

    def test_healthy_run_never_trips_and_is_cycle_identical(self):
        """Criterion 5 spot-check: the watchdog observes through the
        queue watcher, so enabling it must not move a single cycle."""
        def run(watchdog):
            spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
            if watchdog:
                spec.watchdog = WatchdogConfig(stall_cycles=5_000.0,
                                               check_every_events=1)
            return run_collective(spec, CollectiveOp.ALL_REDUCE, 256 * 1024)

        bare = run(watchdog=False)
        watched = run(watchdog=True)
        assert watched.duration_cycles == bare.duration_cycles
        assert watched.system.now == bare.system.now
        assert (watched.system.events.events_processed
                == bare.system.events.events_processed)


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
