"""Multi-phase hierarchical collective execution (Sec. III-D).

:class:`ChunkExecution` drives one chunk through its phase plan.  Every
phase instantiates per-group algorithm state machines lazily; a node
joins its group's instance in phase *p+1* the moment it finishes its role
in phase *p*, so chunks pipeline across dimensions exactly as the paper's
scheduler intends (different phases use different dedicated links).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.collectives.context import CollectiveContext
from repro.collectives.direct_algorithms import (
    DirectAllGather,
    DirectAllReduce,
    DirectAllToAll,
    DirectReduceScatter,
)
from repro.collectives.ring_algorithms import (
    RingAllGather,
    RingAllReduce,
    RingAllToAll,
    RingReduceScatter,
)
from repro.collectives.types import CollectiveOp, PhaseSpec
from repro.dims import Dimension
from repro.errors import CollectiveError
from repro.network.channel import HopRing, SwitchChannel
from repro.network.physical.fabric import Fabric

_RING_ALGORITHMS = {
    CollectiveOp.REDUCE_SCATTER: RingReduceScatter,
    CollectiveOp.ALL_GATHER: RingAllGather,
    CollectiveOp.ALL_REDUCE: RingAllReduce,
    CollectiveOp.ALL_TO_ALL: RingAllToAll,
}

_DIRECT_ALGORITHMS = {
    CollectiveOp.REDUCE_SCATTER: DirectReduceScatter,
    CollectiveOp.ALL_GATHER: DirectAllGather,
    CollectiveOp.ALL_REDUCE: DirectAllReduce,
    CollectiveOp.ALL_TO_ALL: DirectAllToAll,
}


class ChunkExecution:
    """One chunk's journey through a multi-phase collective plan.

    ``chunk_index`` selects the dedicated channel within each phase (the
    LSQ the chunk is assigned to): ring phases use ring
    ``chunk_index % num_rings``; switch phases offset the per-peer switch
    spread by the same index.
    """

    def __init__(
        self,
        ctx: CollectiveContext,
        fabric: Fabric,
        plan: list[PhaseSpec],
        chunk_bytes: float,
        chunk_index: int = 0,
        on_done: Optional[Callable[["ChunkExecution"], None]] = None,
        on_phase_done: Optional[Callable[[int, int], None]] = None,
        label: str = "chunk",
    ):
        if chunk_bytes <= 0:
            raise CollectiveError(f"chunk size must be positive: {chunk_bytes}")
        self.ctx = ctx
        self.fabric = fabric
        self.plan = list(plan)
        self.chunk_bytes = float(chunk_bytes)
        self.chunk_index = chunk_index
        self.on_done = on_done
        self.on_phase_done = on_phase_done
        self.label = label

        #: The NPUs this execution simulates: all of them, or NPU 0 alone
        #: in a quotient run (see :class:`CollectiveContext`), where its
        #: phase joins and departures stand for every NPU's.
        self.nodes = [0] if ctx.copies > 1 else list(range(fabric.num_npus))
        #: Per phase: group key -> that group's algorithm instance, built
        #: when the group's first node enters.  A phase's table is dropped
        #: (None) once every node has left the phase, so a finished
        #: instance is freed by reference counting: its ``on_node_done``
        #: points back at this execution.
        self._instances: list[Optional[dict[tuple, Any]]] = [
            {} for _ in self.plan
        ]
        #: Per-phase instance labels ("set3/c0/p2:all_reduce@VERTICAL"),
        #: formatted once per chunk rather than once per instance.
        self._phase_labels = [
            f"{label}/p{i + 1}:{spec.op.value}@{spec.dim}"
            for i, spec in enumerate(self.plan)
        ]
        self._finished_nodes = 0
        self._nodes_in_phase: list[int] = [0] * (len(self.plan) + 1)
        self._nodes_left_phase: list[int] = [0] * (len(self.plan) + 1)
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Per-phase [start, end] timestamps (end None while running),
        #: feeding the timeline/trace tooling.
        self.phase_spans: list[list[Optional[float]]] = [
            [None, None] for _ in self.plan
        ]

    # -- public ------------------------------------------------------------------

    def start(self) -> None:
        """All nodes enter phase 0 now (the chunk leaves the ready queue)."""
        if self.started_at is not None:
            raise CollectiveError(f"{self.label} started twice")
        self.started_at = self.ctx.now
        if not self.plan:
            self.finished_at = self.ctx.now
            on_done = self._release_callbacks()
            if on_done is not None:
                self.ctx.at(self.ctx.now, partial(on_done, self))
            return
        for node in self.nodes:
            self._enter_phase(node, 0)

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def current_min_phase(self) -> int:
        """The earliest phase any node is still in (len(plan) when done)."""
        for p, count in enumerate(self._nodes_in_phase[:-1]):
            if count > 0:
                return p
        return len(self.plan)

    # -- internals ---------------------------------------------------------------

    def _enter_phase(self, node: int, phase_idx: int) -> None:
        self._nodes_in_phase[phase_idx] += 1
        if self.phase_spans[phase_idx][0] is None:
            self.phase_spans[phase_idx][0] = self.ctx.now
        instance = self._instance_for(node, phase_idx)
        instance.start_node(node)

    def _leave_phase(self, node: int, phase_idx: int) -> None:
        self._nodes_in_phase[phase_idx] -= 1
        self._nodes_left_phase[phase_idx] += 1
        if self._nodes_left_phase[phase_idx] == len(self.nodes):
            # Every node has passed through this phase (a transient zero
            # while slow groups are still upstream does not count).  From
            # here on the trace, the progress vector and the wait-for
            # summary read only phase_spans and _nodes_in_phase.
            self.phase_spans[phase_idx][1] = self.ctx.now
            self._instances[phase_idx] = None
            if self.on_phase_done is not None:
                self.on_phase_done(self.chunk_index, phase_idx)
        next_idx = phase_idx + 1
        if next_idx < len(self.plan):
            self._enter_phase(node, next_idx)
        else:
            self._finished_nodes += 1
            if self._finished_nodes == len(self.nodes):
                self.finished_at = self.ctx.now
                on_done = self._release_callbacks()
                if on_done is not None:
                    on_done(self)

    def _release_callbacks(self):
        """Drop the owner's callbacks once the chunk is done (they point
        back at the scheduler, which may keep this execution for the
        trace); returns ``on_done`` for the caller to run."""
        on_done = self.on_done
        self.on_done = self.on_phase_done = None
        return on_done

    def _instance_for(self, node: int, phase_idx: int):
        spec = self.plan[phase_idx]
        group = self.fabric.group_of(spec.dim, node)
        instances = self._instances[phase_idx]
        instance = instances.get(group)
        if instance is None:
            instance = self._build_instance(spec, group, phase_idx)
            instances[group] = instance
        return instance

    def _build_instance(self, spec: PhaseSpec, group: tuple, phase_idx: int):
        channels = self.fabric.channels_for(spec.dim, group)
        size = self.chunk_bytes * spec.size_fraction
        on_node_done = partial(self._leave_phase, phase_idx=phase_idx)
        label = self._phase_labels[phase_idx]
        first = channels[0]
        if isinstance(first, HopRing):
            ring = channels[self.chunk_index % len(channels)]
            algorithm = _RING_ALGORITHMS[spec.op]
            instance = algorithm(
                self.ctx, ring, size,
                on_node_done=on_node_done,
                phase_index=phase_idx + 1,
                label=label,
            )
        elif isinstance(first, SwitchChannel):
            nodes = self._alltoall_group_nodes(group)
            algorithm = _DIRECT_ALGORITHMS[spec.op]
            instance = algorithm(
                self.ctx, nodes, channels, size,
                on_node_done=on_node_done,
                phase_index=phase_idx + 1,
                lsq_offset=self.chunk_index,
                label=label,
            )
        else:
            raise CollectiveError(f"unsupported channel type {type(first)!r}")
        # Bound per instance: the instance, not this execution, owns the
        # reference, and it goes when the phase's table is dropped.
        instance.fail_context = self._phase_context
        return instance

    def _phase_context(self, phase_index: int) -> str:
        """Failure context of the algorithm of (1-based) ``phase_index``,
        built only when a failure reads it: when a mid-phase link dies for
        good, the CollectiveError names the phase and dimension of the
        multi-phase plan, not just the group."""
        spec = self.plan[phase_index - 1]
        return (
            f"phase {phase_index}/{len(self.plan)} "
            f"({spec.op.value} over {spec.dim.name}) of {self.label}"
        )

    def _alltoall_group_nodes(self, group: tuple) -> list[int]:
        """Members of an alltoall-dimension group, in package order (the
        NPUs with the same local index across all packages)."""
        fabric = self.fabric
        axis = next(i for i, block in enumerate(fabric.blocks)
                    if block.dim is Dimension.ALLTOALL)
        return dict(fabric.block_groups(axis))[group]
