"""Direct collective algorithms on the switch-based alltoall dimension
(Sec. III-B, Fig. 5 right).

Every node exchanges with all peers "at the same time": a node issues one
message per peer in a single logical step, each routed through a global
switch.  Switch selection is a Latin-square spread over the group: the
pair at distance d uses switch (d - 1 + the chunk's LSQ index) mod K, so
that with K switches >= peers every peer pair gets a dedicated
uplink/downlink, reproducing the Fig. 9 "one link per peer NAM" setup,
while small K models switch sharing and its queuing delays.

Sends go out distance-major.  A node that joins is staged; once every
event of the current time has fired, the instance sends its staged
nodes' messages for distance 1, then distance 2, up to N - 1
(:meth:`EventQueue.at_end_of_time`).  Instances that flush at the same
time go in the order of (set, chunk, phase, group), not of their
events.  A shared uplink or downlink therefore sees the same sequence of
reservations at every NPU, whatever order same-time events fired in, so
the full run is translation-invariant and schedule-independent
(docs/DETERMINISM.md, "End-of-time flush").

In a quotient run (:class:`repro.collectives.context.CollectiveContext`
``copies`` > 1) only NPU 0 joins.  Its message to distance d takes its
own uplink to that distance's switch, then the switch's downlink to one
fixed peer R: R's downlink on a switch then receives one message per
distance the switch serves, as every real downlink does.  The delivery
stands for the message NPU 0 receives from distance -d
(docs/PERFORMANCE.md, "Quotient run").
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.collectives.base import (
    AllDoneCallback,
    ChainedAllReduce,
    CollectiveAlgorithmBase,
    NodeDoneCallback,
)
from repro.collectives.context import CollectiveContext
from repro.errors import CollectiveError
from repro.events.engine import CountdownBarrier
from repro.network.api import DeliveryRecord
from repro.network.channel import SwitchChannel


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
        label: Optional[str] = None,
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
        # A quotient run enters NPU 0 alone, the first node of its group:
        # a barrier that never fires would keep this instance in a
        # reference cycle.
        self._barriers = {
            n: CountdownBarrier(
                len(self.nodes) - 1,
                lambda n=n: self._mark_done(n),
                name=f"{self.label}:node{n}",
                sanitizer=ctx.sanitizer,
            )
            for n in (self.nodes if ctx.copies == 1 else self.nodes[:1])
        }
        self._position = {n: i for i, n in enumerate(self.nodes)}
        #: Nodes that joined at the current time, sent at its end.
        self._staged: list[int] = []
        #: Same-time flushes of different instances run in this order:
        #: the set, the chunk (its LSQ index), the phase and the group
        #: (its first node).  None of it is event order.
        self._flush_rank = (ctx.set_id, lsq_offset, phase_index, self.nodes[0])

    def _switch_at(self, distance: int) -> SwitchChannel:
        """Distance-spread switch assignment, offset by the chunk's LSQ."""
        return self.switches[(distance - 1 + self.lsq_offset) % len(self.switches)]

    def _on_join(self, node: int) -> None:
        if not self._staged:
            self._events.at_end_of_time(self._flush_rank, self._flush)
        self._staged.append(node)

    def _flush(self) -> None:
        """Send the staged nodes' messages, distance-major."""
        staged, self._staged = self._staged, []
        position = self._position
        staged.sort(key=position.__getitem__)
        nodes = self.nodes
        n = len(nodes)
        # A quotient run routes every message into one fixed peer's
        # downlink (see the module docstring).
        quotient_peer = nodes[1] if self._receiver == 1 else None
        send = self.ctx.send
        size = self.message_bytes
        label = self.label
        delivered = self._delivered
        for distance in range(1, n):
            switch = self._switch_at(distance)
            on_failed = partial(self._fail_fast, switch=switch) if self._reliable else None
            for node in staged:
                peer = (nodes[(position[node] + distance) % n]
                        if quotient_peer is None else quotient_peer)
                send(node, peer, size, switch.path(node, peer),
                     (label, node, peer), delivered, on_failed)

    def _delivered(self, record: DeliveryRecord) -> None:
        if self._stats is not None:
            self._stats.record(record, self._events.now)
        # The item is the sender; it arrives at the receiver, or back at
        # the sender in a quotient run.
        self._deliver(record[self._receiver], record[1])

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

    def _process(self, node: int, origin: int) -> None:
        self._at(self._events.now + self._receive_delay, self._barriers[node].arrive)


class DirectReduceScatter(_DirectExchangeBase):
    """One-step reduce-scatter: node *i* sends segment *j* to node *j* and
    reduces the segments it receives (Fig. 5 right)."""

    reduces = True
    default_label = "direct-rs"


class DirectAllGather(_DirectExchangeBase):
    """One-step all-gather: every node broadcasts its segment to all peers."""

    default_label = "direct-ag"


class DirectAllToAll(_DirectExchangeBase):
    """One-step all-to-all: reduce-scatter's traffic pattern without the
    local reduction (Sec. III-B)."""

    default_label = "direct-a2a"


class DirectAllReduce(ChainedAllReduce):
    """Direct all-reduce: one-step reduce-scatter chained into a one-step
    all-gather over the same switches."""

    scatter_class = DirectReduceScatter
    gather_class = DirectAllGather
    default_label = "direct-ar"

    def __init__(self, ctx: CollectiveContext, nodes: Sequence[int],
                 switches: Sequence[SwitchChannel], size_bytes: float,
                 on_node_done: Optional[NodeDoneCallback] = None,
                 on_all_done: Optional[AllDoneCallback] = None,
                 phase_index: int = 0, lsq_offset: int = 0, label: Optional[str] = None):
        self._chain(ctx, nodes, switches, size_bytes, on_node_done=on_node_done,
                    on_all_done=on_all_done, label=label, phase_index=phase_index,
                    lsq_offset=lsq_offset)
