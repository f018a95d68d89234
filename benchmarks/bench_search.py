"""Design-space search vs exhaustive enumeration on the Fig. 9 space.

The shipped `search_fig09.json` space holds a few hundred unique
feasible platforms.  Exhaustive enumeration simulates every one; the
seeded evolutionary search must land on the same best point with a
fraction of the budget.  Both paths run through the parallel executor,
so this also exercises the generation-batching hot path.
"""

import json

from repro.parallel import ParallelExecutor, RunPoint
from repro.search import (
    SearchSpace,
    make_objective,
    make_strategy,
    rank_frontier,
    run_search,
)

from bench_common import print_table, run_once

SPACE_FILE = "examples/configs/search_fig09.json"
SIZE_BYTES = 65536
BUDGET = 48
JOBS = 4


def load_space():
    with open(SPACE_FILE) as f:
        spec = json.load(f)
    spec["size_bytes"] = SIZE_BYTES
    return SearchSpace.from_dict(spec)


def test_search_beats_exhaustive_enumeration(benchmark):
    space = load_space()
    objective = make_objective("time", space.cost_table, space.size_bytes)
    genomes = space.enumerate_genomes()

    ex = ParallelExecutor(jobs=JOBS)
    results = ex.run_points([
        RunPoint(builder=space.decode(g).platform_spec,
                 op=space.collective, size_bytes=space.size_bytes)
        for g in genomes])
    exhaustive_best = min(r.duration_cycles for r in results)

    def search():
        strategy = make_strategy("evolutionary", space, seed=2020)
        return run_search(space, objective, strategy, budget=BUDGET,
                          executor=ParallelExecutor(jobs=JOBS))

    trajectory = run_once(benchmark, search)
    frontier = rank_frontier(trajectory)
    print_table(
        f"Search ({len(trajectory)} evals) vs exhaustive ({len(genomes)})",
        [{"rank": i + 1, "label": e.label, "cycles": e.duration_cycles,
          "x_floor": round(e.floor_ratio, 3)}
         for i, e in enumerate(frontier[:8])])

    assert BUDGET < len(genomes), "the space must dwarf the budget"
    assert frontier[0].score <= exhaustive_best, (
        "seeded search must match the exhaustive optimum")
    assert all(e.floor_ratio >= 1.0 for e in frontier), (
        "no simulated time may beat the alpha-beta bandwidth floor")
