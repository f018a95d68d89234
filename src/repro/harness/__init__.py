"""Per-figure experiment runners regenerating the paper's evaluation.

The package re-exports the shared runners and the bandwidth test.  The
per-figure modules (``fig09``-``fig18``) and ``sweep`` are imported as
submodules (``from repro.harness import fig09``), so running one
collective does not load every figure.
"""

from repro.harness.bandwidth_test import (
    BandwidthPoint,
    format_points,
    measure,
    traffic_factor,
)
from repro.harness.runners import (
    SWEEP_SIZES,
    CollectiveResult,
    PlatformSpec,
    alltoall_platform,
    run_collective,
    run_training,
    sweep_collective,
    torus_platform,
)

__all__ = [
    "BandwidthPoint",
    "CollectiveResult",
    "format_points",
    "measure",
    "traffic_factor",
    "PlatformSpec",
    "SWEEP_SIZES",
    "alltoall_platform",
    "run_collective",
    "run_training",
    "sweep_collective",
    "torus_platform",
]
