"""Collective bandwidth test (the "bandwidth test" of Sec. V).

Reports, per collective and message size, the figures every collective
benchmark suite prints:

* latency — set request to completion (cycles),
* algorithm bandwidth (algbw) — payload bytes / time,
* bus bandwidth (busbw) — algbw scaled by the collective's traffic
  factor (2(n-1)/n for all-reduce, (n-1)/n for reduce-scatter,
  all-gather and all-to-all), comparable against raw link bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.collectives.types import CollectiveOp
from repro.errors import CollectiveError
from repro.harness.runners import PlatformSpec, run_sweep


@dataclass(frozen=True)
class BandwidthPoint:
    """One (platform, collective, size) measurement."""

    #: The platform's name, as its collective result carries it.
    label: str
    op: CollectiveOp
    size_bytes: float
    latency_cycles: float
    algbw_bytes_per_cycle: float
    busbw_bytes_per_cycle: float


def traffic_factor(op: CollectiveOp, n: int) -> float:
    """Per-node traffic as a multiple of the payload (nccl-tests style)."""
    if n < 2:
        raise CollectiveError(f"need >= 2 nodes, got {n}")
    if op is CollectiveOp.ALL_REDUCE:
        return 2.0 * (n - 1) / n
    if op in (CollectiveOp.REDUCE_SCATTER, CollectiveOp.ALL_GATHER,
              CollectiveOp.ALL_TO_ALL):
        return (n - 1) / n
    raise CollectiveError(f"no traffic factor for {op}")


def measure(
    platform_builder: Callable[[], PlatformSpec],
    op: CollectiveOp,
    sizes: Sequence[float],
    sanitize: bool = False,
) -> list[BandwidthPoint]:
    """Run the bandwidth test: one fresh platform per size, every size in
    one executor batch.  A size a supervised run quarantined is left out
    of the table."""
    results = run_sweep({"bandwidth": platform_builder}, op, sizes,
                        sanitize=sanitize).series["bandwidth"]
    return [
        BandwidthPoint(
            label=r.label,
            op=op,
            size_bytes=r.size_bytes,
            latency_cycles=r.duration_cycles,
            algbw_bytes_per_cycle=r.size_bytes / r.duration_cycles,
            busbw_bytes_per_cycle=(r.size_bytes / r.duration_cycles
                                   * traffic_factor(op, r.num_npus)),
        )
        for r in results if r is not None
    ]


def format_points(points: Sequence[BandwidthPoint]) -> str:
    """An nccl-tests style table (bandwidths in bytes/cycle = GB/s at the
    default 1 GHz clock)."""
    header = (f"{'size (B)':>12} {'latency (cyc)':>16} "
              f"{'algbw (B/cyc)':>15} {'busbw (B/cyc)':>15}")
    lines = [header, "-" * len(header)]
    for p in points:
        lines.append(
            f"{p.size_bytes:>12,.0f} {p.latency_cycles:>16,.1f} "
            f"{p.algbw_bytes_per_cycle:>15.2f} {p.busbw_bytes_per_cycle:>15.2f}"
        )
    return "\n".join(lines)
