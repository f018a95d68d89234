"""Seeded design-space search over topology x BW x collective x scheduler.

The optimizer counterpart to the fixed Fig. 9-12 grids: a declarative
:class:`SearchSpace` (JSON-loadable, validated before any simulation),
pluggable lower-is-better :class:`Objective`s including cost/TCO
weighting, and seeded :class:`Strategy` implementations (random and
(mu+lambda) evolutionary) driven by :func:`run_search` through the
parallel executor and content-addressed run cache.  See docs/SEARCH.md.
"""

from repro.search.driver import Evaluation, load_trajectory, rank_frontier, run_search
from repro.search.objectives import (
    OBJECTIVE_NAMES,
    CostObjective,
    Objective,
    PerfPerLinkDollarObjective,
    TimeObjective,
    floor_cycles,
    make_objective,
)
from repro.search.report import SearchReport
from repro.search.space import (
    AXIS_NAMES,
    SearchPoint,
    SearchSpace,
    platform_for_point,
)
from repro.search.strategies import (
    STRATEGY_NAMES,
    EvolutionaryStrategy,
    RandomStrategy,
    Strategy,
    make_strategy,
)

__all__ = [
    "AXIS_NAMES",
    "OBJECTIVE_NAMES",
    "STRATEGY_NAMES",
    "CostObjective",
    "Evaluation",
    "EvolutionaryStrategy",
    "Objective",
    "PerfPerLinkDollarObjective",
    "RandomStrategy",
    "SearchPoint",
    "SearchReport",
    "SearchSpace",
    "Strategy",
    "TimeObjective",
    "floor_cycles",
    "load_trajectory",
    "make_objective",
    "make_strategy",
    "platform_for_point",
    "rank_frontier",
    "run_search",
]
