"""Stall watchdog: no-progress detection on a live event queue.

A drain deadlock (empty queue, unfinished collectives) is already caught
by :meth:`System.run_until_idle`.  The failure mode this module targets is
nastier: the queue keeps firing events — retry timers, backoff timers —
but nothing *real* ever happens, because every retransmission lands on a
permanently-down path or a never-resuming node.  Without a watchdog such
a run burns wall-clock until ``max_events`` trips with a generic livelock
error, or forever.

The :class:`Watchdog` observes the queue through the
:attr:`~repro.events.engine.EventQueue.watcher` hook.  Every
``check_every_events`` executed events it samples the system's *progress
vector* (deliveries, chunk completions, finished sets — see
:meth:`repro.system.sys_layer.System.progress_vector`).  If the vector
has not changed for ``stall_cycles`` of simulated time while events kept
firing, the run is stalled: the watchdog assembles a
:class:`StallDiagnostics` bundle (wait-for summary, per-chunk stuck
phases, the live fault set, transport stats), optionally writes it to
disk, and aborts with :class:`~repro.errors.StallError`.

Pure-compute gaps do not false-positive: during a long compute phase no
events fire, so no checks run; the first check after the gap sees the
deliveries the resumed communication produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConfigError, StallError


@dataclass
class WatchdogConfig:
    """Stall-detection thresholds and where a trip's bundle lands."""

    #: Simulated cycles without progress before declaring a stall.
    stall_cycles: float = 2_000_000.0
    #: Sample the progress vector every this many executed events.
    check_every_events: int = 2048
    #: Where diagnostic bundles land; ``None`` keeps the diagnostics in
    #: the raised :class:`StallError` only.
    bundle_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.stall_cycles <= 0:
            raise ConfigError(
                f"watchdog stall_cycles must be positive, got {self.stall_cycles}")
        if self.check_every_events <= 0:
            raise ConfigError(
                f"watchdog check_every_events must be positive, got "
                f"{self.check_every_events}")


@dataclass
class StallDiagnostics:
    """Everything a human needs to diagnose a tripped watchdog."""

    time: float
    events_processed: int
    stalled_for_cycles: float
    progress_vector: tuple
    wait_for: str
    diagnostics: dict[str, Any] = field(default_factory=dict)
    bundle_path: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "events_processed": self.events_processed,
            "stalled_for_cycles": self.stalled_for_cycles,
            "progress_vector": list(self.progress_vector),
            "wait_for": self.wait_for,
            "diagnostics": self.diagnostics,
        }

    def summary(self) -> str:
        lines = [
            f"no progress for {self.stalled_for_cycles:,.0f} cycles at "
            f"t={self.time:,.0f} ({self.events_processed} events executed)",
            self.wait_for,
        ]
        if self.bundle_path:
            lines.append(f"diagnostic bundle: {self.bundle_path}")
        return "\n".join(lines)


class Watchdog:
    """Progress monitor for one :class:`~repro.system.sys_layer.System`."""

    def __init__(self, system, config: Optional[WatchdogConfig] = None):
        self.system = system
        self.config = config if config is not None else WatchdogConfig()
        self._events_at_last_check = system.events.events_processed
        self._last_vector: Optional[tuple] = None
        self._last_progress_time = system.now
        #: The diagnostics of the trip, kept for post-mortem inspection
        #: (the chaos harness reads it after catching the StallError).
        self.tripped: Optional[StallDiagnostics] = None

    # -- the watcher-side entry point --------------------------------------------

    def note_event(self, queue) -> None:
        """The queue's watcher: called after every executed event."""
        events = queue.events_processed
        if events - self._events_at_last_check < self.config.check_every_events:
            return
        self._events_at_last_check = events
        self._check()

    def _check(self) -> None:
        vector = self.system.progress_vector()
        now = self.system.now
        if vector != self._last_vector:
            self._last_vector = vector
            self._last_progress_time = now
            return
        stalled_for = now - self._last_progress_time
        if stalled_for >= self.config.stall_cycles:
            self._trip(vector, stalled_for)

    # -- tripping ----------------------------------------------------------------

    def _trip(self, vector: tuple, stalled_for: float) -> None:
        diag = StallDiagnostics(
            time=self.system.now,
            events_processed=self.system.events.events_processed,
            stalled_for_cycles=stalled_for,
            progress_vector=vector,
            wait_for=self.system.wait_for_summary(),
            diagnostics=self.system.diagnostics(),
        )
        if self.config.bundle_dir is not None:
            diag.bundle_path = self._write_bundle(diag)
        self.tripped = diag
        raise StallError("simulation stalled: " + diag.summary())

    def _write_bundle(self, diag: StallDiagnostics) -> str:
        from repro.resilience.bundles import write_bundle

        stem = f"stall-{diag.events_processed:012d}"
        return write_bundle(self.config.bundle_dir, stem, diag.to_dict())
