"""System-layer statistics: the queue/network delay breakdowns of the paper.

Fig. 12b and Fig. 16 report, per run or per layer:

* **Queue P0** — time chunks wait in the ready queue before dispatch.
* **Queue P1..Pk** — per-phase message injection-queue delay (waiting for
  the phase's dedicated links to finish previously issued chunks).
* **Network P1..Pk** — per-phase in-network message delay (serialization,
  propagation, intermediate hops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.collectives.context import COMPACT_AT, PhaseStats

#: Upper bound on phases any plan produces (enhanced all-reduce = 4).
MAX_PHASES = 8


@dataclass
class DelayBreakdown:
    """Aggregated queue/network delays for one scope (a run or one set).

    The sample lists are compacted exactly as they grow (see
    :meth:`PhaseStats.compact_values`), so memory is bounded per scope
    and phase while every total stays the exact sum rounded once.
    """

    phase_stats: dict[int, PhaseStats] = field(default_factory=dict)
    ready_queue_delays: list[float] = field(default_factory=list)
    ready_queue_count: int = 0

    def phase(self, phase_index: int, copies: int = 1) -> PhaseStats:
        """The stats of phase ``phase_index``, created on first use with
        ``copies`` (see :class:`PhaseStats`).

        Collective algorithm instances resolve their phase's stats here
        once and record every delivered message into it directly.
        """
        stats = self.phase_stats.get(phase_index)
        if stats is None:
            stats = self.phase_stats[phase_index] = PhaseStats(copies=copies)
        return stats

    def record_ready_queue(self, delay_cycles: float) -> None:
        self.ready_queue_count += 1
        self.ready_queue_delays.append(delay_cycles)
        if len(self.ready_queue_delays) >= COMPACT_AT:
            PhaseStats.compact_values(self.ready_queue_delays)

    def compact(self) -> None:
        """Compact every sample list now (a finished set's final state)."""
        for stats in self.phase_stats.values():
            stats.compact()
        PhaseStats.compact_values(self.ready_queue_delays)

    @property
    def mean_ready_queue_delay(self) -> float:
        """Queue P0 in the paper's terminology.

        ``fsum``: exact sum, so the mean does not depend on the order
        chunks were dispatched in (schedule-tie permutations reorder it).
        """
        if not self.ready_queue_count:
            return 0.0
        return math.fsum(self.ready_queue_delays) / self.ready_queue_count

    def mean_queue_delay(self, phase_index: int) -> float:
        """Queue P<phase_index> (mean per-message link-wait cycles)."""
        stats = self.phase_stats.get(phase_index)
        return stats.mean_queue_cycles if stats else 0.0

    def mean_network_delay(self, phase_index: int) -> float:
        """Network P<phase_index> (mean per-message in-network cycles)."""
        stats = self.phase_stats.get(phase_index)
        return stats.mean_network_cycles if stats else 0.0

    @property
    def num_phases(self) -> int:
        return max(self.phase_stats, default=0)

    def rows(self) -> list[dict[str, float]]:
        """Fig. 12b style rows: one dict per phase with queue/network means."""
        out = [{"phase": 0, "queue": self.mean_ready_queue_delay, "network": 0.0}]
        for p in range(1, self.num_phases + 1):
            out.append({
                "phase": p,
                "queue": self.mean_queue_delay(p),
                "network": self.mean_network_delay(p),
            })
        return out

    def as_dict(self) -> dict:
        """JSON-serializable form; round-trips through :meth:`from_dict`.

        Used by the run cache (:mod:`repro.parallel.cache`) so a cached
        collective result carries its full Fig. 12b breakdown.  The delays
        are written fully compacted, which depends on their exact sum
        alone, so the payload is the same under any dispatch order.
        """
        delays = list(self.ready_queue_delays)
        PhaseStats.compact_values(delays)
        return {
            "phase_stats": {str(p): s.as_dict() for p, s in self.phase_stats.items()},
            "ready_queue_count": self.ready_queue_count,
            "ready_queue_delays": delays,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DelayBreakdown":
        out = cls()
        for p, stats in data.get("phase_stats", {}).items():
            out.phase_stats[int(p)] = PhaseStats.from_dict(stats)
        out.ready_queue_delays = [float(d) for d in data.get("ready_queue_delays", [])]
        # Schema-1 payloads (still in old supervisor/service journals) hold
        # one raw delay per chunk and no count.
        out.ready_queue_count = int(data.get("ready_queue_count",
                                             len(out.ready_queue_delays)))
        return out

    def merge_from(self, other: "DelayBreakdown") -> None:
        """Fold another breakdown into this one (per-set -> per-run)."""
        for p, stats in other.phase_stats.items():
            self.phase(p, stats.copies).merge_from(stats)
        self.ready_queue_count += other.ready_queue_count
        self.ready_queue_delays.extend(other.ready_queue_delays)
        if len(self.ready_queue_delays) >= COMPACT_AT:
            PhaseStats.compact_values(self.ready_queue_delays)
