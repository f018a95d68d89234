"""Base machinery for per-node collective state machines.

Every algorithm instance spans the nodes of one topology group for one
chunk-phase.  Nodes *join* independently (a node joins a phase only when
it finished the previous phase of that chunk), receives that land before
the receiver has joined are buffered, and per-node completion is reported
upward so the chunk coordinator can advance each node to its next phase
without a global barrier — matching ASTRA-SIM's per-node stream
progression.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.collectives.context import CollectiveContext
from repro.errors import CollectiveError
from repro.network.api import DeliveryRecord

NodeDoneCallback = Callable[[int], None]
AllDoneCallback = Callable[[], None]


class CollectiveAlgorithmBase:
    """Per-group, per-chunk-phase collective state machine.

    Every message an instance sends carries the same delivery handler,
    :meth:`_delivered`: it records the backend's delivery record on the
    phase's stats and reads what it needs (step, origin, destination)
    from the record's endpoints and tag, so a send builds no closure.
    The handler is bound at each send rather than stored on the instance:
    a stored bound method makes a reference cycle of every instance, which
    measured about 6 MB more peak RSS on the ResNet-50 step than a bound
    method that lives for one message.
    """

    def __init__(
        self,
        ctx: CollectiveContext,
        nodes: list[int],
        size_bytes: float,
        on_node_done: Optional[NodeDoneCallback] = None,
        on_all_done: Optional[AllDoneCallback] = None,
        phase_index: int = 0,
        label: str = "",
    ):
        if len(nodes) < 2:
            raise CollectiveError(f"collective needs >= 2 nodes, got {len(nodes)}")
        if len(set(nodes)) != len(nodes):
            raise CollectiveError(f"duplicate nodes in collective group: {nodes}")
        if size_bytes <= 0:
            raise CollectiveError(f"collective size must be positive: {size_bytes}")
        self.ctx = ctx
        self.nodes = list(nodes)
        self.size_bytes = float(size_bytes)
        self.on_node_done = on_node_done
        self.on_all_done = on_all_done
        self.phase_index = phase_index
        self.label = label
        #: Resolved once for the per-message path: the stats this phase's
        #: messages record into (None when the context has no breakdown),
        #: whether the backend reports failures (sends build an
        #: ``on_failed`` callback only then), the event queue (its ``now``
        #: is a delivery's time) and its ``after``.
        self._stats = ctx.phase_stats(phase_index)
        self._reliable = ctx.reliable
        self._events = ctx.events
        self._after = ctx.after
        #: Where a delivery record names the node that receives it: the
        #: receiver (2), or in a quotient run the sender (1), since there
        #: the message NPU 0 sends its successor stands for the one it
        #: receives from its predecessor.
        self._receiver = 1 if ctx.copies > 1 else 2

        self._joined: set[int] = set()
        self._done: set[int] = set()
        #: Items received before their node joined; a node's list is made
        #: by its first early item (most nodes never buffer one).
        self._pending: dict[int, list] = {}
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.fail_context = ""

    @property
    def fail_context(self) -> str:
        """Where this instance sits in a multi-phase plan ("phase 2/3
        (all_reduce over HORIZONTAL) of set1/c0"), attached by the chunk
        coordinator so an unrecoverable transport failure in any phase
        surfaces as a :class:`CollectiveError` that names the phase and
        dimension instead of a bare transport diagnostic.  Set as a string
        or as a callable that builds one from the instance's
        ``phase_index``, so the coordinator formats it only when a failure
        reads it."""
        context = self._fail_context
        return context if isinstance(context, str) else context(self.phase_index)

    @fail_context.setter
    def fail_context(self, value) -> None:
        self._fail_context = value

    def stuck_ranks(self) -> list[int]:
        """The ranks that have not completed this instance (failure report)."""
        return sorted(set(self.nodes) - self._done)

    # -- lifecycle -------------------------------------------------------------

    def start_node(self, node: int) -> None:
        """``node`` joins this phase (its previous phase finished)."""
        if node not in self.nodes:
            raise CollectiveError(f"node {node} is not part of {self.label or self!r}")
        if node in self._joined:
            raise CollectiveError(f"node {node} joined {self.label or self!r} twice")
        self._joined.add(node)
        if self.started_at is None:
            self.started_at = self.ctx.now
        self._on_join(node)
        for item in self._pending.pop(node, ()):
            self._process(node, item)

    def start_all(self) -> None:
        """Convenience for tests / single-phase runs: all nodes join now."""
        for node in self.nodes:
            self.start_node(node)

    def unfold(self) -> None:
        """Deliveries go to their receivers from now on: the quotient run
        this instance started in became a full run
        (:meth:`repro.collectives.hierarchical.ChunkExecution.unfold`)."""
        self._receiver = 2

    @property
    def done(self) -> bool:
        return len(self._done) == len(self.nodes)

    def node_done(self, node: int) -> bool:
        return node in self._done

    # -- subclass protocol -------------------------------------------------------

    def _on_join(self, node: int) -> None:
        """Issue the node's initial sends.  Subclasses override."""
        raise NotImplementedError

    def _process(self, node: int, item: object) -> None:
        """Handle one received item for a joined node.  Subclasses override."""
        raise NotImplementedError

    def _delivered(self, record: DeliveryRecord) -> None:
        """Handle one delivery record ``(handler, src, dst, size_bytes,
        tag, created_at, injected_at)`` (the delivery handler of every
        send): record it on the phase's stats, then route it.  Subclasses
        override."""
        raise NotImplementedError

    # -- helpers for subclasses ---------------------------------------------------

    def _deliver(self, node: int, item: object) -> None:
        """Route a received item to ``node``, buffering until it joins."""
        if node in self._joined:
            self._process(node, item)
        else:
            self._pending.setdefault(node, []).append(item)

    def _mark_done(self, node: int) -> None:
        if node in self._done:
            raise CollectiveError(f"node {node} completed {self.label or self!r} twice")
        self._done.add(node)
        if self.on_node_done is not None:
            self.on_node_done(node)
        if self.done:
            self.finished_at = self.ctx.now
            if self.on_all_done is not None:
                self.on_all_done()
