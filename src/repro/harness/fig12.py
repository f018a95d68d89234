"""Fig. 12 — scaling the Torus from 8 to 64 modules, with the queue and
network delay breakdown of the 4-phase all-reduce.

Setup (Sec. V-D): asymmetric tori 2x2x2, 2x4x2, 2x4x4 and 2x4x8 running
the enhanced (4-phase) all-reduce.  Reported per shape: total
communication time (Fig. 12a) and the mean Queue P0-P4 / Network P1-P4
delays (Fig. 12b).

Expected shape: time grows with module count, but slows between 16
(2x4x2) and 32 (2x4x4) modules — the bottleneck ring size stays 4, only
shifting from horizontal to vertical (visible as Queue P2 becoming
dominant at 2x4x4) — then jumps again at 2x4x8 (a new ring of 8).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from repro.collectives.types import CollectiveOp
from repro.config.parameters import CollectiveAlgorithm, TorusShape
from repro.config.units import MB
from repro.harness.runners import CollectiveResult, torus_platform

SHAPES = (
    TorusShape(2, 2, 2),
    TorusShape(2, 4, 2),
    TorusShape(2, 4, 4),
    TorusShape(2, 4, 8),
)

DEFAULT_SIZE = 2 * MB


@dataclass
class Figure12Result:
    size_bytes: float
    results: list[CollectiveResult]
    #: Shape labels in point order — lets gap rows stay attributable to
    #: their shape when a supervised run quarantined the point.
    shapes: Sequence[str] = ()

    @property
    def complete(self) -> bool:
        """False when a supervised run quarantined a point (gap rows)."""
        return all(r is not None for r in self.results)

    def _shape_label(self, i: int) -> str:
        if i < len(self.shapes):
            return str(self.shapes[i])
        return f"point[{i}]"

    def total_rows(self) -> list[dict[str, float]]:
        """Fig. 12a: total communication time per shape; quarantined
        points render as explicit ``None`` gaps."""
        rows = []
        for i, r in enumerate(self.results):
            if r is None:
                rows.append({"shape": self._shape_label(i),
                             "modules": None, "cycles": None})
            else:
                rows.append({"shape": r.label, "modules": r.num_npus,
                             "cycles": r.duration_cycles})
        return rows

    def breakdown_rows(self) -> dict[str, list[dict[str, float]]]:
        """Fig. 12b: queue/network delays per phase, per shape (gaps
        omitted — there is no breakdown to render for a poison point)."""
        return {r.label: r.breakdown.rows()
                for r in self.results if r is not None}


def _platform(shape: TorusShape):
    return torus_platform(
        shape,
        algorithm=CollectiveAlgorithm.ENHANCED,
        local_rings=2,
        horizontal_rings=2,
        vertical_rings=2,
    )


def schedule_probes(size_bytes: float = 256 * 1024,
                    shapes: Sequence[TorusShape] = SHAPES[:2]) -> list:
    """Schedule-perturbation probes for the Fig. 12 setup.

    Defaults to the two smallest tori (2x2x2, 2x4x2) with a reduced
    payload — the 4-phase enhanced all-reduce exercises every phase's
    queueing with far fewer events than the full 2 MB sweep.
    """
    from repro.sanitize.schedule import CollectiveProbe

    return [
        CollectiveProbe(
            label=f"fig12/torus-{shape}/all_reduce",
            platform_builder=functools.partial(_platform, shape),
            op=CollectiveOp.ALL_REDUCE,
            size_bytes=float(size_bytes),
        )
        for shape in shapes
    ]


def run(
    size_bytes: float = DEFAULT_SIZE,
    shapes: Sequence[TorusShape] = SHAPES,
) -> Figure12Result:
    from repro.parallel.executor import RunPoint, default_executor

    points = [
        RunPoint(builder=functools.partial(_platform, shape),
                 op=CollectiveOp.ALL_REDUCE, size_bytes=float(size_bytes))
        for shape in shapes
    ]
    return Figure12Result(size_bytes=size_bytes,
                          results=default_executor().run_points(points),
                          shapes=[f"torus-{shape}" for shape in shapes])
