"""Wall-clock profiling for simulator runs: phases + events/sec.

The simulator's own clock is simulated cycles; this module measures the
*host* cost of producing them — per-phase wall-clock (build / simulate /
report) and two throughput figures: **modeled messages per second** of
simulate wall-clock (the messages the run stands for, every NPU's, which
a quotient run simulates only once per orbit) and **events per second**
through the event queue.

Two consumers:

* the CLI (global ``--profile`` flag) prints a phase table and events/sec
  after any run, and
* ``benchmarks/bench_hot_path.py`` writes the canonical macro-benchmark
  result as ``BENCH_PR5.json`` so the repository records a perf
  trajectory (see docs/PERFORMANCE.md for the schema and how CI gates on
  regressions).
"""

from __future__ import annotations

import json
import os
import platform
import time  # det: allow-file[wall-clock] profiling measures host wall-clock by design
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import ReproError

#: Schema version of BENCH_*.json files.
BENCH_SCHEMA = 1


@dataclass
class RunProfile:
    """Accumulated wall-clock phases and event-throughput counters."""

    name: str = "run"
    #: Ordered (phase, seconds) pairs; a phase name may repeat.
    phases: list = field(default_factory=list)
    #: Simulator events executed inside the profiled run.
    events: int = 0
    #: Modeled collective messages of the profiled run (every NPU's: the
    #: phase stats' counts, which a quotient run multiplies out).
    messages: int = 0
    #: Final simulated time of the run (cycles).
    cycles: float = 0.0

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Time one phase: ``with profile.phase("simulate"): ...``"""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases.append((label, time.perf_counter() - start))

    def add_phase(self, label: str, seconds: float) -> None:
        self.phases.append((label, float(seconds)))

    def record_system(self, system: Any) -> None:
        """Pull event/cycle counters off a finished system.

        Counts *logical* events (:attr:`EventQueue.events_simulated`):
        executed events plus the singleton events that batched handlers
        folded away (the detailed backend's flit bursts).  That keeps
        events/sec meaningful as a throughput figure across batching
        changes — the denominator work is what the unbatched design would
        have executed, not however few events the batching needed.
        """
        self.events += system.events.events_simulated
        self.messages += sum(stats.messages
                             for stats in system.breakdown.phase_stats.values())
        self.cycles = max(self.cycles, system.now)

    @property
    def total_seconds(self) -> float:
        return sum(seconds for _, seconds in self.phases)

    def seconds_of(self, label: str) -> float:
        return sum(s for name, s in self.phases if name == label)

    def _per_simulate_second(self, count: int) -> float:
        simulate = self.seconds_of("simulate") or self.total_seconds
        return count / simulate if simulate > 0 else 0.0

    @property
    def events_per_sec(self) -> float:
        """Events/sec over the *simulate* phases (the hot-loop figure)."""
        return self._per_simulate_second(self.events)

    @property
    def messages_per_sec(self) -> float:
        """Modeled messages/sec over the *simulate* phases: the inverse of
        wall time per simulated message."""
        return self._per_simulate_second(self.messages)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "phases": [{"label": label, "seconds": seconds}
                       for label, seconds in self.phases],
            "wall_seconds": self.total_seconds,
            "events": self.events,
            "cycles": self.cycles,
            "events_per_sec": self.events_per_sec,
            "messages": self.messages,
            "messages_per_sec": self.messages_per_sec,
        }

    def format(self) -> str:
        lines = [f"profile [{self.name}]: {self.total_seconds:.3f}s wall"]
        for label, seconds in self.phases:
            lines.append(f"  {label:<12s} {seconds:8.3f}s")
        if self.events:
            lines.append(
                f"  events       {self.events:>10,d}  "
                f"({self.events_per_sec:,.0f} events/sec)")
        if self.messages:
            lines.append(
                f"  messages     {self.messages:>10,d}  "
                f"({self.messages_per_sec:,.0f} messages/sec)")
        return "\n".join(lines)


# -- process-global active profile -------------------------------------------------
#
# The CLI's --profile flag installs one RunProfile; command handlers that
# finish with a live system record its event counters here so the final
# printout carries events/sec, not just wall-clock.

_active_profile: Optional[RunProfile] = None


def set_active_profile(profile: Optional[RunProfile]) -> None:
    """Install (or clear, with ``None``) the process-wide profile."""
    global _active_profile
    _active_profile = profile


def active_profile() -> Optional[RunProfile]:
    return _active_profile


def write_bench(path: str, benchmarks: list[dict[str, Any]],
                label: str = "") -> str:
    """Write a ``BENCH_*.json`` perf-trajectory document.

    ``benchmarks`` are :meth:`RunProfile.as_dict` payloads (one per
    macro-benchmark).  The document carries enough host context to judge
    whether two files are comparable.
    """
    doc = {
        "schema": BENCH_SCHEMA,
        "label": label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": benchmarks,
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    return path


def find_newest_bench(root: str) -> str:
    """Path of the newest ``BENCH_PR<k>.json`` under ``root``.

    "Newest" is the highest PR number, not mtime or lexicographic order
    (``BENCH_PR10`` > ``BENCH_PR5`` numerically but not as strings) —
    checkouts do not preserve commit times, so the filename is the only
    trustworthy ordering.  Non-matching ``BENCH_*.json`` names are
    ignored.  Raises :class:`ReproError` when no baseline exists.
    """
    import re

    best: tuple[int, str] | None = None
    pattern = re.compile(r"^BENCH_PR(\d+)\.json$")
    try:
        names = os.listdir(root)
    except OSError as exc:
        raise ReproError(f"cannot list bench root {root}: {exc}") from exc
    for name in names:
        match = pattern.match(name)
        if match:
            key = int(match.group(1))
            if best is None or key > best[0]:
                best = (key, name)
    if best is None:
        raise ReproError(f"no BENCH_PR<k>.json baseline found in {root}")
    return os.path.join(root, best[1])


def read_bench(path: str) -> dict[str, Any]:
    """Load and validate a ``BENCH_*.json`` document."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ReproError(f"cannot read bench file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid bench JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        raise ReproError(f"{path}: not a schema-{BENCH_SCHEMA} bench file")
    return doc


def compare_bench(baseline: dict[str, Any], current: dict[str, Any],
                  max_regression: float = 0.20) -> list[str]:
    """Throughput regressions of ``current`` vs ``baseline``.

    A benchmark whose baseline records modeled messages/sec is gated on
    that figure (wall time per simulated message), any other on
    events/sec.  Returns one message per benchmark whose figure dropped
    by more than ``max_regression`` (empty = within tolerance).
    Benchmarks present on only one side are ignored — adding a benchmark
    must not fail the gate.
    """
    if not 0 < max_regression < 1:
        raise ReproError(f"max_regression must be in (0, 1): {max_regression}")
    base = {b["name"]: b for b in baseline.get("benchmarks", [])}
    regressions = []
    for bench in current.get("benchmarks", []):
        ref = base.get(bench["name"])
        if ref is None:
            continue
        key = "messages_per_sec" if ref.get("messages_per_sec") else "events_per_sec"
        if not ref.get(key):
            continue
        ratio = bench.get(key, 0.0) / ref[key]
        if ratio < 1.0 - max_regression:
            unit = key.replace("_per_sec", "/sec")
            regressions.append(
                f"{bench['name']}: {bench.get(key, 0.0):,.0f} {unit} "
                f"is {1 - ratio:.0%} below baseline {ref[key]:,.0f}"
            )
    return regressions
