"""Seeded design-space search over topology x BW x collective x scheduler.

The optimizer counterpart to the fixed Fig. 9-12 grids: a declarative
:class:`~repro.search.space.SearchSpace` (JSON-loadable, validated before
any simulation), pluggable lower-is-better
:class:`~repro.search.objectives.Objective`s including cost/TCO
weighting, and seeded :class:`~repro.search.strategies.Strategy`
implementations (random and (mu+lambda) evolutionary) driven by
:func:`~repro.search.driver.run_search` through the parallel executor
and content-addressed run cache.  See docs/SEARCH.md.

The package root names the entry points the e2e benchmark imports from
it; everything else is imported from its module.
"""

from repro.search.driver import rank_frontier, run_search
from repro.search.objectives import make_objective
from repro.search.space import SearchSpace
from repro.search.strategies import make_strategy

__all__ = ["SearchSpace", "make_objective", "make_strategy", "rank_frontier", "run_search"]
