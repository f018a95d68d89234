"""Fig. 9 — 1D topology: alltoall vs Torus for all-to-all and all-reduce.

Paper shape: (a) the alltoall topology always wins the all-to-all
collective, with the gap narrowing toward the bandwidth ratio as messages
grow; (b) for all-reduce the alltoall topology wins small messages
(fewer steps) and the torus overtakes at large messages (all 8 links +
chunk pipelining vs 7 links).
"""

from repro.config.units import KB, MB
from repro.harness import fig09

from bench_common import print_table, run_once

SIZES = (64 * KB, 512 * KB, 4 * MB, 16 * MB)


def _rows(result):
    """The sweep's rows plus the torus/alltoall ratio the paper plots."""
    rows = result.rows()
    for row in rows:
        row["torus_over_alltoall"] = row["torus_cycles"] / row["alltoall_cycles"]
    return rows


def test_fig09_all_to_all(benchmark):
    result = run_once(benchmark, lambda: fig09.run(SIZES, fig09.CollectiveOp.ALL_TO_ALL))
    rows = _rows(result)
    print_table("Fig 9a: all-to-all collective (cycles)", rows)
    for row in rows:
        assert row["alltoall_cycles"] < row["torus_cycles"], (
            "alltoall topology must always win the all-to-all collective")


def test_fig09_all_reduce(benchmark):
    result = run_once(benchmark, lambda: fig09.run(SIZES, fig09.CollectiveOp.ALL_REDUCE))
    rows = _rows(result)
    print_table("Fig 9b: all-reduce collective (cycles)", rows)
    assert rows[0]["alltoall_cycles"] < rows[0]["torus_cycles"], (
        "alltoall should win at the smallest message size")
    assert rows[-1]["torus_cycles"] < rows[-1]["alltoall_cycles"], (
        "torus should win at the largest message size")
