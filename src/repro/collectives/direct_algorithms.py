"""Direct collective algorithms on the switch-based alltoall dimension
(Sec. III-B, Fig. 5 right).

Every node exchanges with all peers "at the same time": a node issues one
message per peer in a single logical step, each routed through a global
switch.  Switch selection uses the Latin-square distance spread of
:meth:`AllToAllFabric.switch_for` (offset by the chunk's LSQ index) so
that with K switches >= peers every peer pair gets a dedicated
uplink/downlink, reproducing the Fig. 9 "one link per peer NAM" setup,
while small K models switch sharing and its queuing delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from repro.collectives.base import (
    AllDoneCallback,
    CollectiveAlgorithmBase,
    NodeDoneCallback,
)
from repro.collectives.context import CollectiveContext
from repro.errors import CollectiveError
from repro.events.engine import CountdownBarrier
from repro.network.channel import SwitchChannel
from repro.network.message import Message


@dataclass
class _DirectReceive:
    origin: int


class _DirectExchangeBase(CollectiveAlgorithmBase):
    """Common one-step exchange: send ``message_bytes`` to every peer, wait
    for a message from every peer, optionally paying a reduction delay."""

    #: Subclasses set whether receives pay the local-reduction delay.
    reduces = False

    def __init__(
        self,
        ctx: CollectiveContext,
        nodes: Sequence[int],
        switches: Sequence[SwitchChannel],
        size_bytes: float,
        on_node_done: Optional[NodeDoneCallback] = None,
        on_all_done: Optional[AllDoneCallback] = None,
        phase_index: int = 0,
        lsq_offset: int = 0,
        label: str = "direct",
    ):
        super().__init__(ctx, list(nodes), size_bytes, on_node_done, on_all_done,
                         phase_index, label)
        if not switches:
            raise CollectiveError("direct collective needs >= 1 switch channel")
        self.switches = list(switches)
        self.lsq_offset = lsq_offset
        self.message_bytes = self.size_bytes / len(self.nodes)
        delay = ctx.endpoint_delay_cycles
        if self.reduces:
            delay += ctx.reduction_cycles(self.message_bytes)
        self._receive_delay = delay
        # Each node is done after the N-1 concurrent receives of the
        # one-step exchange; the barrier's arrival accounting is what the
        # runtime sanitizer audits (over-arrival = duplicated delivery,
        # under-arrival at quiescence = a receive that never happened).
        self._barriers = {
            n: CountdownBarrier(
                len(self.nodes) - 1,
                lambda n=n: self._mark_done(n),
                name=f"{label}:node{n}",
                sanitizer=ctx.sanitizer,
            )
            for n in self.nodes
        }
        self._position = {n: i for i, n in enumerate(self.nodes)}

    def _switch_for(self, src: int, dst: int) -> SwitchChannel:
        """Distance-spread switch assignment, offset by the chunk's LSQ."""
        distance = (self._position[dst] - self._position[src]) % len(self.nodes)
        return self.switches[(distance - 1 + self.lsq_offset) % len(self.switches)]

    def _on_join(self, node: int) -> None:
        for peer in self.nodes:
            if peer == node:
                continue
            switch = self._switch_for(node, peer)
            on_failed = partial(self._fail_fast, switch=switch) if self._reliable else None
            self.ctx.send(node, peer, self.message_bytes, switch.path(node, peer),
                          (self.label, node, peer), self._delivered, on_failed)

    def _delivered(self, message: Message) -> None:
        if self._stats is not None:
            self._stats.record(message)
        self._deliver(message.dst, _DirectReceive(message.src))

    def _fail_fast(self, failure, switch: SwitchChannel) -> None:
        """A switch up/downlink died for good (retry budget exhausted):
        unlike rings there is no counter-rotating spare, so fail with the
        phase/dimension context instead of letting the barrier hang."""
        context = self.fail_context
        where = f" in {context}" if context else ""
        raise CollectiveError(
            f"collective {self.label or type(self).__name__}{where} cannot "
            f"make progress through switch {switch.switch_id}: "
            f"{failure.describe()}; stuck ranks: {self.stuck_ranks()}"
        )

    def _process(self, node: int, item: _DirectReceive) -> None:
        self._after(self._receive_delay, self._barriers[node].arrive)


class DirectReduceScatter(_DirectExchangeBase):
    """One-step reduce-scatter: node *i* sends segment *j* to node *j* and
    reduces the segments it receives (Fig. 5 right)."""

    reduces = True

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("label", "direct-rs")
        super().__init__(*args, **kwargs)


class DirectAllGather(_DirectExchangeBase):
    """One-step all-gather: every node broadcasts its segment to all peers."""

    reduces = False

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("label", "direct-ag")
        super().__init__(*args, **kwargs)


class DirectAllToAll(_DirectExchangeBase):
    """One-step all-to-all: reduce-scatter's traffic pattern without the
    local reduction (Sec. III-B)."""

    reduces = False

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("label", "direct-a2a")
        super().__init__(*args, **kwargs)


class DirectAllReduce:
    """Direct all-reduce: one-step reduce-scatter chained into a one-step
    all-gather over the same switches."""

    def __init__(
        self,
        ctx: CollectiveContext,
        nodes: Sequence[int],
        switches: Sequence[SwitchChannel],
        size_bytes: float,
        on_node_done: Optional[NodeDoneCallback] = None,
        on_all_done: Optional[AllDoneCallback] = None,
        phase_index: int = 0,
        lsq_offset: int = 0,
        label: str = "direct-ar",
    ):
        self.nodes = list(nodes)
        self.size_bytes = float(size_bytes)
        self._gather = DirectAllGather(
            ctx, nodes, switches, size_bytes,
            on_node_done=on_node_done,
            on_all_done=on_all_done,
            phase_index=phase_index,
            lsq_offset=lsq_offset,
            label=f"{label}/ag",
        )
        self._scatter = DirectReduceScatter(
            ctx, nodes, switches, size_bytes,
            on_node_done=self._gather.start_node,
            phase_index=phase_index,
            lsq_offset=lsq_offset,
            label=f"{label}/rs",
        )
        self.label = label

    def start_node(self, node: int) -> None:
        self._scatter.start_node(node)

    def start_all(self) -> None:
        for node in self.nodes:
            self.start_node(node)

    @property
    def done(self) -> bool:
        return self._gather.done

    def node_done(self, node: int) -> bool:
        return self._gather.node_done(node)

    @property
    def started_at(self) -> Optional[float]:
        return self._scatter.started_at

    @property
    def finished_at(self) -> Optional[float]:
        return self._gather.finished_at

    @property
    def fail_context(self) -> str:
        return self._scatter.fail_context

    @fail_context.setter
    def fail_context(self, value) -> None:
        # Both stages fail with the same phase/dimension context.
        self._scatter.fail_context = value
        self._gather.fail_context = value
