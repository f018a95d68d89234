"""Generic parameter-sweep utility for design-space exploration.

Wraps the "build platform -> run -> collect metric" loop every study in
Sec. V repeats, producing a :class:`ComparisonTable` plus raw rows ready
for :func:`repro.analysis.export.rows_to_csv`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.compare import ComparisonTable
from repro.errors import ReproError


@dataclass
class SweepResult:
    """Rows plus a speedup table for one sweep."""

    parameter: str
    metric: str
    rows: list[dict] = field(default_factory=list)
    #: Points a supervised executor quarantined instead of measuring:
    #: ``{parameter: value, "status": ..., "failure_class": ...}`` per
    #: gap, so a partial sweep renders its holes explicitly.
    gaps: list[dict] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.gaps

    def table(self, baseline: str | None = None) -> ComparisonTable:
        table = ComparisonTable(metric=self.metric)
        for row in self.rows:
            table.add(str(row[self.parameter]), row[self.metric])
        return table

    def values(self) -> list[float]:
        return [row[self.metric] for row in self.rows]

    def argmin(self):
        if not self.rows:
            raise ReproError("sweep produced no rows")
        best = min(self.rows, key=lambda r: r[self.metric])
        return best[self.parameter]


def sweep(
    parameter: str,
    values: Sequence,
    run: Callable[[object], float],
    metric: str = "cycles",
    executor=None,
) -> SweepResult:
    """Evaluate ``run(value)`` for every value, collecting ``metric``.

    When an ``executor`` (:class:`repro.parallel.ParallelExecutor`) is
    given, points fan out through its ordered :meth:`map` — a ``run``
    that is not picklable (e.g. a closure) transparently falls back to
    the serial loop, with identical results either way.  A
    :class:`repro.parallel.supervisor.SupervisedExecutor` routes through its
    supervised map instead: a crashed/hung/poison point becomes an entry
    in ``SweepResult.gaps`` and the rest of the sweep completes.

    >>> result = sweep("chunks", [1, 2], lambda c: 100.0 / c)
    >>> result.argmin()
    2
    """
    if not values:
        raise ReproError("sweep needs at least one value")
    result = SweepResult(parameter=parameter, metric=metric)
    if executor is not None and hasattr(executor, "map_outcomes"):
        for value, outcome in zip(values, executor.map_outcomes(run, list(values))):
            if outcome.ok and outcome.result is not None:
                result.rows.append({parameter: value,
                                    metric: float(outcome.result)})
            else:
                result.gaps.append({parameter: value,
                                    "status": outcome.status.value,
                                    "failure_class": outcome.failure_class})
        return result
    if executor is not None:
        measured_values = executor.map(run, list(values))
    else:
        measured_values = [run(value) for value in values]
    for value, measured in zip(values, measured_values):
        if measured is None:
            raise ReproError(f"run({value!r}) returned no metric")
        result.rows.append({parameter: value, metric: float(measured)})
    return result
