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
from typing import Sequence

from repro.collectives.types import CollectiveOp
from repro.config.parameters import CollectiveAlgorithm, TorusShape
from repro.config.units import MB
from repro.harness.runners import Sweep, run_sweep, torus_platform

SHAPES = (
    TorusShape(2, 2, 2),
    TorusShape(2, 4, 2),
    TorusShape(2, 4, 4),
    TorusShape(2, 4, 8),
)

DEFAULT_SIZE = 2 * MB


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
) -> Sweep:
    """One ``size_bytes`` all-reduce per shape, as one executor batch;
    series are named like the platforms (``torus-2x4x4``).  A series'
    one result carries Fig. 12a's total time and module count and Fig.
    12b's per-phase breakdown."""
    return run_sweep({f"torus-{shape}": functools.partial(_platform, shape)
                      for shape in shapes},
                     CollectiveOp.ALL_REDUCE, [size_bytes])
