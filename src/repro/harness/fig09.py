"""Fig. 9 — 1D topology: alltoall vs. Torus for all-to-all and all-reduce.

Setup (Sec. V-A): 8 packages, one NAM each.  The alltoall topology gives
each NAM one link per peer through 7 global switches (one of the 8 links
unused); the torus is a 1D ring with four links per peer NAM (four
bidirectional rings).  Both sweep the collective payload size.

Expected shape: the alltoall topology always wins the all-to-all
collective, with the gap shrinking as messages grow; for all-reduce the
torus overtakes at large messages (it uses all 8 links and pipelines
chunks across rings, while alltoall drives only 7 links).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.collectives.types import CollectiveOp
from repro.config.parameters import AllToAllShape, TorusShape
from repro.harness.runners import (
    SWEEP_SIZES,
    CollectiveResult,
    alltoall_platform,
    torus_platform,
)
from repro.parallel.executor import RunPoint, default_executor

PACKAGES = 8


@dataclass
class Figure9Result:
    collective: CollectiveOp
    alltoall: list[CollectiveResult]
    torus: list[CollectiveResult]

    @property
    def complete(self) -> bool:
        """False when a supervised run quarantined a point (gap rows)."""
        return all(r is not None for r in self.alltoall + self.torus)

    def rows(self) -> list[dict[str, float]]:
        """One row per size; quarantined points render as explicit
        ``None`` gaps (partial figure) instead of aborting the panel."""
        out = []
        for a, t in zip(self.alltoall, self.torus):
            present = a if a is not None else t
            out.append({
                "size_bytes": present.size_bytes if present is not None else None,
                "alltoall_cycles": a.duration_cycles if a is not None else None,
                "torus_cycles": t.duration_cycles if t is not None else None,
                "torus_over_alltoall": (t.duration_cycles / a.duration_cycles
                                        if a is not None and t is not None
                                        else None),
            })
        return out


def _alltoall():
    """1x8 alltoall: 7 switches so every peer pair has a dedicated link."""
    return alltoall_platform(
        AllToAllShape(local=1, packages=PACKAGES),
        global_switches=PACKAGES - 1,
    )


def _torus():
    """1x8x1 ring: four bidirectional rings = four links per peer NAM."""
    return torus_platform(
        TorusShape(local=1, horizontal=PACKAGES, vertical=1),
        horizontal_rings=4,
    )


def _points(sizes: Sequence[float], collective: CollectiveOp) -> list[RunPoint]:
    """Both topologies' sweep points, alltoall block first then torus."""
    return [RunPoint(builder=builder, op=collective, size_bytes=float(size))
            for builder in (_alltoall, _torus) for size in sizes]


def _split(collective: CollectiveOp, sizes: Sequence[float],
           results: list[CollectiveResult]) -> Figure9Result:
    n = len(sizes)
    return Figure9Result(collective=collective,
                         alltoall=results[:n], torus=results[n:])


def run(sizes: Sequence[float] = SWEEP_SIZES,
        collective: CollectiveOp = CollectiveOp.ALL_REDUCE) -> Figure9Result:
    """Run one of the two Fig. 9 panels ((a) all-to-all, (b) all-reduce).

    Both topologies' points go to the executor as one batch so ``--jobs``
    overlaps them instead of parallelizing each 4-point sweep alone.
    """
    sizes = list(sizes)
    results = default_executor().run_points(_points(sizes, collective))
    return _split(collective, sizes, results)


def schedule_probes(size_bytes: float = 64 * 1024) -> list:
    """Schedule-perturbation probes for the Fig. 9 setup.

    Small payloads (one sweep point per topology x collective) keep
    ``astra-repro analyze --schedule`` runs short; the race detector
    re-runs each probe once per trial.
    """
    from repro.sanitize.schedule import CollectiveProbe

    return [
        CollectiveProbe(
            label=f"fig09/{name}/{op.value}",
            platform_builder=builder,
            op=op,
            size_bytes=float(size_bytes),
        )
        for name, builder in (("alltoall", _alltoall), ("torus", _torus))
        for op in (CollectiveOp.ALL_TO_ALL, CollectiveOp.ALL_REDUCE)
    ]


def run_both(sizes: Sequence[float] = SWEEP_SIZES) -> dict[str, Figure9Result]:
    """Both panels, all 2 collectives x 2 topologies x sizes in one batch."""
    sizes = list(sizes)
    points = (_points(sizes, CollectiveOp.ALL_TO_ALL)
              + _points(sizes, CollectiveOp.ALL_REDUCE))
    results = default_executor().run_points(points)
    half = 2 * len(sizes)
    return {
        "all_to_all": _split(CollectiveOp.ALL_TO_ALL, sizes, results[:half]),
        "all_reduce": _split(CollectiveOp.ALL_REDUCE, sizes, results[half:]),
    }
