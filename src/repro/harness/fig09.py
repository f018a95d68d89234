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

from typing import Sequence

from repro.collectives.types import CollectiveOp
from repro.config.parameters import AllToAllShape, TorusShape
from repro.harness.runners import (
    SWEEP_SIZES,
    Sweep,
    alltoall_platform,
    run_sweep,
    torus_platform,
)

PACKAGES = 8


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


def run(sizes: Sequence[float] = SWEEP_SIZES,
        collective: CollectiveOp = CollectiveOp.ALL_REDUCE) -> Sweep:
    """Run one of the two Fig. 9 panels ((a) all-to-all, (b) all-reduce):
    the ``alltoall`` and ``torus`` series, as one executor batch."""
    return run_sweep({"alltoall": _alltoall, "torus": _torus},
                     collective, sizes)


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
