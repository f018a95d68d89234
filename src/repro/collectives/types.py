"""Collective operation types and multi-phase plans (Sec. III-B, III-D).

A *plan* is the multi-phase decomposition of one collective over a
hierarchical topology: an ordered list of :class:`PhaseSpec`, one per
dimension traversal.  Every phase algorithm takes an *input size* ``S``
and internally divides it by the ring/group size, so ``size_fraction``
expresses how much of the chunk a phase operates on (the enhanced
all-reduce shrinks the inter-package phases by the local dimension size).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.config.parameters import CollectiveAlgorithm
from repro.errors import CollectiveError
from repro.dims import Dimension


class CollectiveOp(enum.Enum):
    """The four collective operations of Fig. 4 (plus NONE for layers
    without communication in some training phase)."""

    ALL_REDUCE = "allreduce"
    ALL_GATHER = "allgather"
    REDUCE_SCATTER = "reducescatter"
    ALL_TO_ALL = "alltoall"
    NONE = "none"


#: The collectives a run can request: the one op table behind the CLI's
#: ``--op``, the service payload's ``op`` and a search space's
#: ``collective``, each spelled by its value (``allreduce``, ...).
COLLECTIVE_OPS = tuple(op for op in CollectiveOp if op is not CollectiveOp.NONE)


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a multi-phase collective.

    ``size_fraction`` scales the chunk size to this phase's input size.
    """

    dim: Dimension
    op: CollectiveOp
    size_fraction: float

    def __post_init__(self) -> None:
        if self.op is CollectiveOp.NONE:
            raise CollectiveError("a phase cannot be a NONE operation")
        if not 0 < self.size_fraction <= 1:
            raise CollectiveError(
                f"size_fraction must be in (0, 1], got {self.size_fraction}"
            )


def build_phase_plan(
    op: CollectiveOp,
    dims: list[tuple[Dimension, int]],
    algorithm: CollectiveAlgorithm = CollectiveAlgorithm.BASELINE,
) -> list[PhaseSpec]:
    """Build the multi-phase plan for ``op`` over ``dims``.

    ``dims`` lists (dimension, group size) pairs in traversal order —
    local first, then vertical, then horizontal (Sec. III-D) — restricted
    to the dimensions the collective spans (hybrid parallelism scopes
    collectives to a subset of dimensions).  Dimensions of size 1 are
    skipped.

    Baseline all-reduce runs a full all-reduce per dimension.  Enhanced
    all-reduce (Sec. III-D) exploits asymmetric bandwidth: reduce-scatter
    on the local dimension, all-reduce of the 1/M remainder on the
    inter-package dimensions, all-gather on the local dimension — cutting
    inter-package traffic by the local size M.
    """
    if op is CollectiveOp.NONE:
        return []
    active = [(d, n) for d, n in dims if n > 1]
    if not active:
        return []
    for d, n in active:
        if n < 2:
            raise CollectiveError(f"dimension {d} size must be >= 2, got {n}")

    if op is CollectiveOp.ALL_REDUCE:
        return _all_reduce_plan(active, algorithm)
    if op is CollectiveOp.REDUCE_SCATTER:
        return _reduce_scatter_plan(active)
    if op is CollectiveOp.ALL_GATHER:
        return _all_gather_plan(active)
    if op is CollectiveOp.ALL_TO_ALL:
        return [PhaseSpec(d, CollectiveOp.ALL_TO_ALL, 1.0) for d, _ in active]
    raise CollectiveError(f"unsupported collective op: {op}")


def _all_reduce_plan(
    active: list[tuple[Dimension, int]], algorithm: CollectiveAlgorithm
) -> list[PhaseSpec]:
    first_dim, first_size = active[0]
    enhanced_applies = (
        algorithm is CollectiveAlgorithm.ENHANCED
        and first_dim is Dimension.LOCAL
        and len(active) > 1
    )
    if not enhanced_applies:
        return [PhaseSpec(d, CollectiveOp.ALL_REDUCE, 1.0) for d, _ in active]

    plan = [PhaseSpec(first_dim, CollectiveOp.REDUCE_SCATTER, 1.0)]
    inter_fraction = 1.0 / first_size
    plan.extend(
        PhaseSpec(d, CollectiveOp.ALL_REDUCE, inter_fraction) for d, _ in active[1:]
    )
    plan.append(PhaseSpec(first_dim, CollectiveOp.ALL_GATHER, 1.0))
    return plan


def _reduce_scatter_plan(active: list[tuple[Dimension, int]]) -> list[PhaseSpec]:
    plan = []
    fraction = 1.0
    for dim, size in active:
        plan.append(PhaseSpec(dim, CollectiveOp.REDUCE_SCATTER, fraction))
        fraction /= size
    return plan


def _all_gather_plan(active: list[tuple[Dimension, int]]) -> list[PhaseSpec]:
    """All-gather traverses dimensions outside-in (reverse of reduce-scatter)
    with the gathered size growing; the last phase gathers the full chunk."""
    total = 1
    for _, size in active:
        total *= size
    plan = []
    cumulative = 1
    for dim, size in reversed(active):
        cumulative *= size
        plan.append(PhaseSpec(dim, CollectiveOp.ALL_GATHER, cumulative / total))
    return plan


def num_phases(plan: list[PhaseSpec]) -> int:
    return len(plan)
