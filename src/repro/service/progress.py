"""Progress snapshots for in-flight service jobs.

Reuses the watchdog's *progress vector* (PR 4,
:meth:`repro.system.sys_layer.System.progress_vector`): the same tuple
the stall detector samples — deliveries, chunk and set completions, the
things that only change when the simulation makes real progress — is
periodically written to a per-job file by the executing worker, and the
daemon streams it to clients watching ``GET /v1/jobs/<id>/progress``.

The writer is installed through the event queue's ``watcher`` hook, the
one observation point the engine exposes (watchers observe, they never
schedule), so a job with progress streaming on is cycle-identical to one
without.  Snapshots are written atomically (temp file + rename) so a
reader never sees a torn JSON document, and write failures are swallowed
— progress is best-effort telemetry and must never fail a simulation.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional


class ProgressWriter:
    """EventQueue watcher persisting progress-vector snapshots to a file.

    Installed by :func:`repro.parallel.executor._execute_point` when a
    :class:`~repro.parallel.executor.RunPoint` carries ``progress_path``.
    ``bind`` attaches the freshly built system (the vector lives there)
    and becomes its queue's watcher, ``on_event`` samples every
    ``every_events`` executed events, and ``finish`` writes the terminal
    snapshot.  The system builds its own queue, so a job with progress
    streaming on runs as the same quotient or full run as one without.
    """

    def __init__(self, path: str, every_events: int = 4096):
        self.path = path
        self.every_events = max(1, int(every_events))
        self._system = None
        self._next_at = self.every_events

    def bind(self, system) -> None:
        """Attach the built system, watch its event queue and write the
        initial snapshot."""
        self._system = system
        system.events.watcher = self.on_event
        self._write(done=False)

    def on_event(self, queue) -> None:
        if queue.events_processed >= self._next_at:
            self._next_at = queue.events_processed + self.every_events
            self._write(done=False)

    def finish(self, result: Any = None) -> None:
        """Write the terminal snapshot (with the result headline)."""
        self._write(done=True, result=result)

    def _write(self, done: bool, result: Any = None) -> None:
        system = self._system
        if system is None:
            return
        snapshot = {
            "time": system.events.now,
            "events_processed": system.events.events_processed,
            "progress_vector": list(system.progress_vector()),
            "done": done,
        }
        if result is not None:
            snapshot["duration_cycles"] = result.duration_cycles
        tmp = f"{self.path}.tmp"
        try:
            with open(tmp, "w") as f:
                f.write(json.dumps(snapshot, sort_keys=True) + "\n")
            os.replace(tmp, self.path)
        except OSError:
            pass  # best-effort telemetry: never fail the simulation


def read_progress(path: Optional[str]) -> Optional[dict[str, Any]]:
    """The last complete snapshot at ``path``, or ``None``.

    Torn/absent files read as ``None`` — the writer's atomic rename makes
    that a transient state, and the streaming endpoint just waits for the
    next snapshot.
    """
    if not path:
        return None
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None
