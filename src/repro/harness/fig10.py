"""Fig. 10 — all-reduce on 2D/3D Torus shapes at 64 packages.

Setup (Sec. V-B): 64 modules with symmetric links (every link is the
25 GB/s inter-package class) running the baseline algorithm on
1x64x1, 1x8x8, 2x8x4 and 4x4x4 tori.

Expected shape: 1x8x8 beats 1x64x1 decisively (14 hops vs 63 beats the
extra volume 28/8 N vs 126/64 N); 2x8x4 is worse than 1x8x8 (more volume,
same bottleneck ring of 8); 4x4x4 beats 2x8x4 and is the best for small
messages, while 1x8x8 wins again at large (>= ~4 MB) messages where its
lower volume (28/8 N vs 36/8 N) dominates.
"""

from __future__ import annotations

import functools
from typing import Sequence

from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape
from repro.harness.runners import SWEEP_SIZES, Sweep, run_sweep, torus_platform

SHAPES = (
    TorusShape(1, 64, 1),
    TorusShape(1, 8, 8),
    TorusShape(2, 8, 4),
    TorusShape(4, 4, 4),
)


def _platform(shape: TorusShape):
    """Symmetric-link torus; 1D shapes get four bidirectional rings so the
    per-NAM link count matches the multi-dimensional shapes."""
    one_dimensional = (shape.local == 1 and shape.vertical == 1)
    rings = 4 if one_dimensional else 2
    return torus_platform(
        shape,
        symmetric=True,
        horizontal_rings=rings,
        vertical_rings=2,
    )


def run(
    sizes: Sequence[float] = SWEEP_SIZES,
    collective: CollectiveOp = CollectiveOp.ALL_REDUCE,
    shapes: Sequence[TorusShape] = SHAPES,
) -> Sweep:
    """Every shape's sweep as one executor batch; series are named by
    shape (``1x8x8``).  functools.partial over the module-level builder
    (not a lambda) keeps the points picklable for worker slots."""
    return run_sweep({str(shape): functools.partial(_platform, shape)
                      for shape in shapes}, collective, sizes)
