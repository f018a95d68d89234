"""Fig. 11 — asymmetric hierarchical topology on 64 modules (4 NAM x 16 NAP).

Setup (Sec. V-C): a 4x4x4 torus with two unidirectional rings inside each
package and four bidirectional rings across packages (two per inter
dimension).  Three systems are compared:

* symmetric — local links equal the 25 GB/s inter-package links,
* asymmetric + baseline — 8x local bandwidth, three-phase per-dimension
  ring all-reduce,
* asymmetric + enhanced — the four-phase algorithm (local reduce-scatter,
  inter-package all-reduce on 1/4 of the data, local all-gather).

Expected shape: asymmetric beats symmetric substantially; the enhanced
algorithm improves further by cutting inter-package volume 4x.
"""

from __future__ import annotations

import functools
from typing import Sequence

from repro.collectives.types import CollectiveOp
from repro.config.parameters import CollectiveAlgorithm, TorusShape
from repro.harness.runners import SWEEP_SIZES, Sweep, run_sweep, torus_platform

SHAPE = TorusShape(local=4, horizontal=4, vertical=4)


def _platform(symmetric: bool, algorithm: CollectiveAlgorithm):
    return torus_platform(
        SHAPE,
        algorithm=algorithm,
        symmetric=symmetric,
        local_rings=2,
        horizontal_rings=2,
        vertical_rings=2,
    )


def run(
    sizes: Sequence[float] = SWEEP_SIZES,
    collective: CollectiveOp = CollectiveOp.ALL_REDUCE,
) -> Sweep:
    """The ``symmetric``, ``asym_baseline`` and ``asym_enhanced`` series
    as one executor batch.  functools.partial over the module-level
    builder (not a lambda) keeps the points picklable for worker slots."""
    return run_sweep({
        "symmetric": functools.partial(
            _platform, True, CollectiveAlgorithm.BASELINE),
        "asym_baseline": functools.partial(
            _platform, False, CollectiveAlgorithm.BASELINE),
        "asym_enhanced": functools.partial(
            _platform, False, CollectiveAlgorithm.ENHANCED),
    }, collective, sizes)
