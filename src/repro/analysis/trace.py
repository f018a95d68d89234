"""Timeline reconstruction and Chrome-trace export.

Build a :class:`repro.system.sys_layer.System` with ``trace=True`` and, after the
run, hand it to :func:`collect_timeline` to get per-chunk phase spans —
or :func:`to_chrome_trace` to get a ``chrome://tracing`` /
https://ui.perfetto.dev compatible JSON string where each collective set
is a track and each chunk-phase is a duration event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ReproError
from repro.system.sys_layer import System


@dataclass(frozen=True)
class PhaseSpan:
    """One chunk spending [start, end] cycles in one collective phase."""

    set_id: int
    set_name: str
    chunk_index: int
    phase_index: int
    phase_label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def collect_timeline(system: System) -> list[PhaseSpan]:
    """Extract every finished chunk's phase spans from a traced system."""
    if not system.scheduler.keep_completed:
        raise ReproError(
            "timeline collection needs a traced run: System(..., trace=True)"
        )
    spans = []
    for ready, execution in system.scheduler.completed_executions:
        collective = ready.collective
        for phase_idx, (start, end) in enumerate(execution.phase_spans):
            if start is None or end is None:
                continue
            spec = execution.plan[phase_idx]
            spans.append(PhaseSpan(
                set_id=collective.set_id,
                set_name=collective.name or f"set{collective.set_id}",
                chunk_index=ready.index_in_set,
                phase_index=phase_idx + 1,
                phase_label=f"P{phase_idx + 1}:{spec.op.value}@{spec.dim}",
                start=start,
                end=end,
            ))
    spans.sort(key=lambda s: (s.set_id, s.chunk_index, s.phase_index))
    return spans


def to_chrome_trace(system: System, cycles_per_microsecond: float = 1000.0) -> str:
    """Serialize the timeline as Chrome trace-event JSON.

    Each collective set becomes a process, each chunk a thread, each
    phase a complete ("X") duration event.  ``cycles_per_microsecond``
    maps simulated cycles onto the trace's microsecond timebase (default:
    the 1 GHz clock).
    """
    if cycles_per_microsecond <= 0:
        raise ReproError("cycles_per_microsecond must be positive")
    events = []
    seen_processes = set()
    for span in collect_timeline(system):
        if span.set_id not in seen_processes:
            seen_processes.add(span.set_id)
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": span.set_id,
                "args": {"name": span.set_name},
            })
        events.append({
            "name": span.phase_label,
            "cat": "collective",
            "ph": "X",
            "pid": span.set_id,
            "tid": span.chunk_index,
            "ts": span.start / cycles_per_microsecond,
            "dur": span.duration / cycles_per_microsecond,
        })
    return json.dumps({"traceEvents": events}, indent=1)


def phase_occupancy(spans: list[PhaseSpan]) -> dict[int, float]:
    """Total busy cycles per phase index across all chunks — a quick view
    of where collective time is spent."""
    out: dict[int, float] = {}
    for span in spans:
        out[span.phase_index] = out.get(span.phase_index, 0.0) + span.duration
    return out
