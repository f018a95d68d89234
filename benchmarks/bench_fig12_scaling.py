"""Fig. 12 — scaling the 4-phase all-reduce from 8 to 64 modules, with the
Queue P0-P4 / Network P1-P4 breakdown.

Paper shape: total time grows with module count but plateaus between 16
(2x4x2) and 32 (2x4x4) modules — the bottleneck ring size stays 4, the
bottleneck merely shifts from the horizontal to the vertical dimension
(Queue P2 becomes the dominant queueing term) — then jumps at 2x4x8.
"""

from repro.config.units import MB
from repro.harness import fig12

from bench_common import print_table, run_once


def test_fig12_scaling_and_breakdown(benchmark):
    result = run_once(benchmark, lambda: fig12.run(size_bytes=2 * MB))

    results = [r for (r,) in result.series.values()]
    totals = [{"shape": r.label, "modules": r.num_npus,
               "cycles": r.duration_cycles} for r in results]
    print_table("Fig 12a: total communication time", totals,
                keys=["shape", "modules", "cycles"])
    for r in results:
        print_table(f"Fig 12b breakdown: {r.label}", r.breakdown.rows(),
                    keys=["phase", "queue", "network"])

    times = [r["cycles"] for r in totals]
    assert times == sorted(times), "communication time must grow with scale"

    # Relative growth 16 -> 32 modules is smaller than 8 -> 16 (plateau).
    growth_8_16 = times[1] / times[0]
    growth_16_32 = times[2] / times[1]
    assert growth_16_32 < growth_8_16

    # Queue P2 (the first inter-package phase) dominates queueing among the
    # inter-package phases at 2x4x4.
    b_2x4x4 = results[2].breakdown
    assert b_2x4x4.mean_queue_delay(2) >= b_2x4x4.mean_queue_delay(3)
