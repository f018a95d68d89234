"""Fig. 11 — asymmetric hierarchical 4x4x4 (64 modules, 4 NAM x 16 NAP).

Paper shape: giving the intra-package links 8x bandwidth improves
all-reduce significantly over the symmetric system, and the four-phase
(enhanced) algorithm improves further by cutting inter-package volume 4x.
The same ordering holds for the all-to-all collective's asymmetric gain.
"""

from repro.config.units import KB, MB
from repro.harness import fig11

from bench_common import print_table, run_once

SIZES = (256 * KB, 4 * MB)


def test_fig11_all_reduce(benchmark):
    result = run_once(benchmark,
                      lambda: fig11.run(SIZES, fig11.CollectiveOp.ALL_REDUCE))
    rows = result.rows()
    for row in rows:
        row["asym_speedup"] = row["symmetric_cycles"] / row["asym_baseline_cycles"]
        row["enhanced_speedup"] = (row["asym_baseline_cycles"]
                                   / row["asym_enhanced_cycles"])
    print_table("Fig 11: all-reduce on 4x4x4 (cycles)", rows)
    for row in rows:
        assert row["asym_baseline_cycles"] < row["symmetric_cycles"], (
            "asymmetric local bandwidth must beat symmetric")
        assert row["asym_enhanced_cycles"] < row["asym_baseline_cycles"], (
            "the 4-phase algorithm must beat the 3-phase baseline")
    # The enhanced gain should be substantial (paper: 4x less inter volume).
    assert rows[-1]["enhanced_speedup"] > 1.5


def test_fig11_all_to_all(benchmark):
    result = run_once(benchmark,
                      lambda: fig11.run(SIZES, fig11.CollectiveOp.ALL_TO_ALL))
    rows = result.rows()
    print_table("Fig 11: all-to-all on 4x4x4 (cycles)", rows)
    for row in rows:
        assert row["asym_baseline_cycles"] < row["symmetric_cycles"], (
            "asymmetric local bandwidth must beat symmetric for all-to-all")
