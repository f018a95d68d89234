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

from functools import partial
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
    re-runs each probe once per trial.  Two more all-reduce probes share
    switches between peers (2 switches on 2x4, 4 on 1x8; 4 chunks of
    4 MB): several senders reserve one downlink there, so their results
    hold only because direct exchanges send in one canonical order.
    """
    from repro.sanitize.schedule import CollectiveProbe

    probes = [
        CollectiveProbe(
            label=f"fig09/{name}/{op.value}",
            platform_builder=builder,
            op=op,
            size_bytes=float(size_bytes),
        )
        for name, builder in (("alltoall", _alltoall), ("torus", _torus))
        for op in (CollectiveOp.ALL_TO_ALL, CollectiveOp.ALL_REDUCE)
    ]
    for local, packages, switches in ((2, 4, 2), (1, 8, 4)):
        probes.append(CollectiveProbe(
            label=f"fig09/alltoall-{local}x{packages}-s{switches}/allreduce",
            platform_builder=partial(
                alltoall_platform, AllToAllShape(local=local, packages=packages),
                global_switches=switches, preferred_set_splits=4),
            op=CollectiveOp.ALL_REDUCE,
            size_bytes=4.0 * 1024 * 1024,
        ))
    return probes
