"""The workload layer's dependency-graph executor (Sec. IV-A, Fig. 8).

A training workload is compute, collective and point-to-point nodes that
wait on one another; :class:`TrainingLoop` and
:class:`PipelineTrainingLoop` only build such a graph and read reports
off it.  Four node kinds:

* a **compute** node runs for its cycles on a serial *stream* (one NPU's
  compute); a stream runs its ready nodes one at a time, lowest
  ``(rank, arrival)`` first, and each compute node is exactly one event
  (zero-cycle ones included);
* a **collective** node calls :meth:`repro.system.System.request_collective`;
* a **p2p** node calls :meth:`repro.system.System.request_p2p`;
* a **join** costs nothing and schedules no event.

A node is issued synchronously, in the callback where its last dependency
completes, and a completing node releases its successors in the order
they were added to the graph.  Communication overlaps compute exactly as
far as the edges allow.

Exposed communication (Fig. 15): a node waits from the completion of its
first dependency (its predecessor on its stream); each later dependency
that completes after the wait so far charges the gap to its ``tag`` in
:attr:`WorkloadGraph.exposed`, in dependency order — the same sequence
of sums as blocking on each dependency in turn.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.errors import WorkloadError
from repro.system.sys_layer import System


@dataclass(slots=True, eq=False)
class Node:
    """One graph node; ``handle`` is its collective set or transfer once
    issued, ``done_at`` its completion time once complete."""

    deps: tuple[int, ...]
    remaining: int
    cycles: Optional[float] = None
    stream: Hashable = None
    rank: int = 0
    tag: Hashable = None
    request: Optional[Callable[[], Any]] = None
    succs: list[int] = field(default_factory=list)
    handle: Any = None
    done_at: Optional[float] = None


class WorkloadGraph:
    """Builds a dependency graph of workload nodes and runs it on a system.

    Nodes are numbered in the order they are added; ``deps`` name nodes
    by number and may name nodes added later.
    """

    def __init__(self, system: System):
        self.system = system
        self.nodes: list[Node] = []
        #: Node numbers in completion order.
        self.completed: list[int] = []
        #: Exposed cycles per dependency tag, summed in the order charged.
        self.exposed: dict[Hashable, float] = {}
        self._ready: defaultdict[Hashable, list] = defaultdict(list)
        self._busy: set[Hashable] = set()
        self._arrivals = itertools.count()

    # -- building ----------------------------------------------------------------

    def compute(self, cycles: float, stream: Hashable, deps: Iterable[int] = (),
                rank: int = 0) -> int:
        """A node computing for ``cycles`` on ``stream``."""
        return self._add(deps, cycles=cycles, stream=stream, rank=rank)

    def collective(self, deps: Iterable[int], tag: Hashable, *args, **kwargs) -> int:
        """A node issuing ``system.request_collective(*args, **kwargs)``;
        waits on it are charged to ``tag``."""
        return self._add(deps, tag=tag, request=partial(
            self.system.request_collective, *args, **kwargs))

    def p2p(self, deps: Iterable[int], *args, **kwargs) -> int:
        """A node issuing ``system.request_p2p(*args, **kwargs)``."""
        return self._add(deps, request=partial(self.system.request_p2p, *args, **kwargs))

    def join(self, deps: Iterable[int]) -> int:
        """A node that completes as soon as all of ``deps`` have."""
        return self._add(deps)

    def _add(self, deps: Iterable[int], **fields) -> int:
        deps = tuple(deps)
        self.nodes.append(Node(deps, len(deps), **fields))
        return len(self.nodes) - 1

    # -- running -----------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> None:
        """Issue every node without dependencies, in order, and drain the
        event queue; raise if any node is left incomplete."""
        nodes = self.nodes
        for number, node in enumerate(nodes):
            for dep in node.deps:
                nodes[dep].succs.append(number)
        for number, node in enumerate(nodes):
            if not node.deps:
                self._issue(number)
        self.system.events.run(max_events=max_events)
        if len(self.completed) < len(nodes):
            raise WorkloadError(
                "event queue drained before the workload finished: "
                f"{len(nodes) - len(self.completed)} of {len(nodes)} nodes never "
                "completed (a dependency cycle, or a collective or transfer "
                "that never finished)")

    def _issue(self, number: int) -> None:
        node = self.nodes[number]
        if len(node.deps) > 1:
            self._charge(node)
        if node.request is not None:
            node.handle = node.request()
            node.handle.on_complete(lambda _handle: self._complete(number))
        elif node.cycles is None:
            self._complete(number)
        else:
            heapq.heappush(self._ready[node.stream],
                           (node.rank, next(self._arrivals), number))
            self._start(node.stream)

    def _charge(self, node: Node) -> None:
        nodes = self.nodes
        cursor = nodes[node.deps[0]].done_at
        for number in node.deps[1:]:
            dep = nodes[number]
            if dep.done_at > cursor:
                if dep.tag is not None:
                    self.exposed[dep.tag] = self.exposed.get(dep.tag, 0.0) + (
                        dep.done_at - cursor)
                cursor = dep.done_at

    def _start(self, stream: Hashable) -> None:
        ready = self._ready[stream]
        if ready and stream not in self._busy:
            number = heapq.heappop(ready)[2]
            self._busy.add(stream)
            self.system.schedule(self.nodes[number].cycles,
                                 lambda: self._finish(number))

    def _finish(self, number: int) -> None:
        stream = self.nodes[number].stream
        self._busy.discard(stream)
        self._complete(number)
        self._start(stream)

    def _complete(self, number: int) -> None:
        node = self.nodes[number]
        node.done_at = self.system.now
        self.completed.append(number)
        for succ in node.succs:
            waiting = self.nodes[succ]
            waiting.remaining -= 1
            if not waiting.remaining:
                self._issue(succ)
