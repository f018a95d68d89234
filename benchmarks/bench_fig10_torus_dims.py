"""Fig. 10 — all-reduce across 2D/3D torus shapes at 64 packages,
symmetric links, baseline algorithm.

Paper shape: 1x8x8 beats 1x64x1 in the latency-bound regime (63 vs 14
hops); 2x8x4 is worse than 1x8x8 (more volume, same bottleneck ring);
4x4x4 beats 2x8x4 everywhere and beats 1x8x8 for small messages, with
1x8x8 winning again at >= ~4 MB where volume dominates.

Note (EXPERIMENTS.md): under a saturating queueing model the 1D ring's
lower total volume (126/64 N vs 28/8 N) eventually wins at very large
messages; the paper's orderings are asserted in the latency-bound regime.
"""

from repro.config.units import KB, MB
from repro.harness import fig10

from bench_common import print_table, run_once

SIZES = (64 * KB, 512 * KB, 4 * MB)


def test_fig10_torus_shapes(benchmark):
    result = run_once(benchmark, lambda: fig10.run(SIZES))
    rows = result.rows()
    print_table("Fig 10: all-reduce on 64-package tori (cycles)", rows)

    small = rows[0]
    assert small["1x8x8_cycles"] < small["1x64x1_cycles"], "2D must beat 1D at small sizes"
    assert small["4x4x4_cycles"] < small["2x8x4_cycles"], "3D must beat the unbalanced 3D"
    assert small["4x4x4_cycles"] < small["1x8x8_cycles"], "4x4x4 wins small messages"
    for row in rows:
        assert row["1x8x8_cycles"] < row["2x8x4_cycles"], (
            "1x8x8 must beat 2x8x4 at every size (same bottleneck ring, "
            "less volume)")

    large = rows[-1]
    assert large["1x8x8_cycles"] < large["4x4x4_cycles"], (
        "1x8x8 regains the lead at large sizes (28/8 N vs 36/8 N)")
