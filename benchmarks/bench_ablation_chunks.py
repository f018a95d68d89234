"""Ablation — chunk count (preferred-set-splits, Table III #16).

Chunking is the pipelining lever of Table II: more chunks let the
scheduler keep every dedicated ring busy and overlap phases.  Expect a
large gain from 1 -> 4 chunks (parallel rings engaged) with diminishing
returns after the channel count is saturated.
"""

from repro.collectives.types import CollectiveOp
from repro.config.parameters import CollectiveAlgorithm, TorusShape
from repro.config.units import MB
from repro.harness.runners import run_collective, torus_platform

from bench_common import print_table, run_once

SPLITS = (1, 2, 4, 8, 16, 32)


def run_sweep():
    rows = []
    for splits in SPLITS:
        platform = torus_platform(
            TorusShape(4, 4, 4),
            algorithm=CollectiveAlgorithm.ENHANCED,
            preferred_set_splits=splits,
        )
        result = run_collective(platform, CollectiveOp.ALL_REDUCE, 8 * MB)
        rows.append({"chunks": splits, "cycles": result.duration_cycles})
    return rows


def test_ablation_chunk_count(benchmark):
    rows = run_once(benchmark, run_sweep)
    print_table("Ablation: preferred-set-splits on 4x4x4 8MB all-reduce", rows)

    by_chunks = {r["chunks"]: r["cycles"] for r in rows}
    # Pipelining across the 4 dedicated inter-package rings needs >= 4 chunks.
    assert by_chunks[4] < by_chunks[1] / 1.8
    # Returns diminish: 16 -> 32 changes little.
    assert abs(by_chunks[32] - by_chunks[16]) < 0.25 * by_chunks[16]
