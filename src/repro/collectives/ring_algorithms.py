"""Ring collective algorithms (Sec. III-B, Fig. 5 left).

All four collectives over one unidirectional ring (:class:`HopRing`).  Data
sizes follow the paper's convention: an algorithm with input size ``S``
on an ``n``-node ring exchanges messages of ``S/n`` (Table II: message
count proportional to the number of nodes).

* reduce-scatter — N-1 steps of send-to-next / reduce (Fig. 5).
* all-gather — N-1 relay steps, no reduction.
* all-reduce — reduce-scatter chained into all-gather.
* all-to-all — N-1 rounds; round *i* targets the node at distance *i*,
  relayed hop-by-hop under software routing (endpoint delay per relay) or
  cut through the fabric under hardware routing (Table III #14).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.collectives.base import (
    AllDoneCallback,
    ChainedAllReduce,
    CollectiveAlgorithmBase,
    NodeDoneCallback,
)
from repro.collectives.context import CollectiveContext
from repro.config.parameters import InjectionPolicy, PacketRouting
from repro.errors import CollectiveError
from repro.network.api import DeliveryRecord
from repro.network.channel import HopRing


class _ResilientRingMixin:
    """Reroute-or-fail-fast policy shared by the ring algorithms.

    Only active under the reliable transport (sends carry an ``on_failed``
    callback only then): when the retry budget for a message is
    exhausted — a permanently dead link — the algorithm reroutes every
    subsequent message over the counter-rotating companion ring
    (``ring.reverse_channel``, same logical neighbors, opposite physical
    direction) when the fabric provides one.  A failure on the surviving
    direction too, or a ring with no reverse, fails fast with a
    diagnostic naming the dead link and the ranks that never finished.
    """

    #: Once True, all sends route over ``ring.reverse_channel``.
    _rerouted = False

    def _route(self, src: int, dst: int):
        channel = self.ring.reverse_channel if self._rerouted else self.ring
        return channel.path(src, dst)

    def _on_send_failed(self, failure, via_reverse: bool, resend) -> None:
        if not via_reverse and self.ring.reverse_channel is not None:
            self._rerouted = True
            resend()
            return
        self._fail_fast(failure)

    def _fail_fast(self, failure) -> None:
        stuck = self.stuck_ranks()
        direction = "surviving ring direction" if self._rerouted else "ring"
        context = self.fail_context
        where = f" in {context}" if context else ""
        raise CollectiveError(
            f"collective {self.label or type(self).__name__}{where} cannot "
            f"make progress on the {direction}: {failure.describe()}; "
            f"stuck ranks: {stuck}"
        )


class _RingStepAlgorithm(_ResilientRingMixin, CollectiveAlgorithmBase):
    """N-1 send-to-next steps over one ring (reduce-scatter, all-gather).

    A node sends step 1 when it joins; every delivered step waits the same
    per-step delay (the endpoint delay, plus the local reduction when
    ``reduces``) before the receiver sends the next step.
    """

    #: Subclasses set whether a received step pays the local-reduction
    #: delay.
    reduces = False

    def __init__(
        self,
        ctx: CollectiveContext,
        ring: HopRing,
        size_bytes: float,
        on_node_done: Optional[NodeDoneCallback] = None,
        on_all_done: Optional[AllDoneCallback] = None,
        phase_index: int = 0,
        label: Optional[str] = None,
    ):
        super().__init__(ctx, ring.nodes, size_bytes, on_node_done, on_all_done,
                         phase_index, label)
        self.ring = ring
        self.message_bytes = self.size_bytes / ring.size
        self._last_step = ring.size - 1
        delay = ctx.endpoint_delay_cycles
        if self.reduces:
            delay += ctx.reduction_cycles(self.message_bytes)
        self._step_delay = delay

    def _send_step(self, node: int, step: int) -> None:
        # One hop-table lookup gives the successor and its route.  After a
        # reroute the step still goes to the forward successor, the long
        # way round the reverse ring.
        _position, nxt, path = self.ring.hops[node]
        if self._rerouted:
            path = self.ring.reverse_channel.path(node, nxt)
        on_failed = (partial(self._on_send_failed, via_reverse=self._rerouted,
                             resend=partial(self._send_step, node, step))
                     if self._reliable else None)
        self.ctx.send(node, nxt, self.message_bytes, path,
                      (self.label, step), self._delivered, on_failed)

    def _delivered(self, record: DeliveryRecord) -> None:
        stats = self._stats
        if stats is not None:
            stats.record(record, self._events.now)
        # record[4] is the (label, step) tag.  _deliver and _process
        # inlined: this runs once per ring message.
        node = record[self._receiver]
        if node in self._joined:
            self._at(self._events.now + self._step_delay,
                     partial(self._advance, node, record[4][1]))
        else:
            self._pending.setdefault(node, []).append(record[4][1])

    def _on_join(self, node: int) -> None:
        self._send_step(node, 1)

    def _process(self, node: int, step: int) -> None:
        self._at(self._events.now + self._step_delay, partial(self._advance, node, step))

    def _advance(self, node: int, step: int) -> None:
        if step < self._last_step:
            self._send_step(node, step + 1)
        else:
            self._mark_done(node)


class RingReduceScatter(_RingStepAlgorithm):
    """Ring reduce-scatter: after N-1 steps each node holds one globally
    reduced segment of size ``size_bytes / n``."""

    reduces = True
    default_label = "ring-rs"


class RingAllGather(_RingStepAlgorithm):
    """Ring all-gather: each node starts with ``size_bytes / n`` and relays
    until it holds all ``size_bytes``.  No reduction delay."""

    default_label = "ring-ag"


class RingAllReduce(ChainedAllReduce):
    """Ring all-reduce: ring reduce-scatter chained into ring all-gather on
    the same channel."""

    scatter_class = RingReduceScatter
    gather_class = RingAllGather
    default_label = "ring-ar"

    def __init__(self, ctx: CollectiveContext, ring: HopRing, size_bytes: float,
                 on_node_done: Optional[NodeDoneCallback] = None,
                 on_all_done: Optional[AllDoneCallback] = None,
                 phase_index: int = 0, label: Optional[str] = None):
        self._chain(ctx, ring, size_bytes, on_node_done=on_node_done,
                    on_all_done=on_all_done, label=label, phase_index=phase_index)


@dataclass
class _A2AReceive:
    """A final (destination-reached) all-to-all message."""

    origin: int


class RingAllToAll(_ResilientRingMixin, CollectiveAlgorithmBase):
    """Ring all-to-all: N-1 rounds, round *i* sending ``size/n`` to the node
    at downstream distance *i* (Sec. III-B).

    Under software routing each hop terminates in the intermediate NPU's
    messaging unit, pays the endpoint delay, and is re-injected; under
    hardware routing the message cuts through the fabric along the whole
    multi-link path.  Injection pacing follows Table III #15: NORMAL
    issues round *i+1* once round *i*'s first hop is delivered; AGGRESSIVE
    issues every round at join time.
    """

    default_label = "ring-a2a"

    def __init__(
        self,
        ctx: CollectiveContext,
        ring: HopRing,
        size_bytes: float,
        on_node_done: Optional[NodeDoneCallback] = None,
        on_all_done: Optional[AllDoneCallback] = None,
        phase_index: int = 0,
        label: Optional[str] = None,
    ):
        super().__init__(ctx, ring.nodes, size_bytes, on_node_done, on_all_done,
                         phase_index, label)
        self.ring = ring
        self.message_bytes = self.size_bytes / ring.size
        self._received: dict[int, int] = {n: 0 for n in ring.nodes}
        self._rounds_issued: dict[int, int] = {n: 0 for n in ring.nodes}
        self._hardware = ctx.packet_routing is PacketRouting.HARDWARE
        self._paced = ctx.injection_policy is InjectionPolicy.NORMAL

    # -- sending ----------------------------------------------------------------

    def _issue_round(self, node: int, round_index: int) -> None:
        final_dst = self.ring.node_at_distance(node, round_index)
        self._rounds_issued[node] = round_index
        if round_index == self.ring.size - 1 and node in self._joined:
            # All receives may already have landed; re-check completion once
            # the final round is on the wire.
            self._at(self._events.now, partial(self._maybe_done, node))
        if self._hardware:
            self._send(node, final_dst, node, final_dst)
        else:
            self._send_hop(node, node, final_dst)

    def _send_hop(self, current: int, origin: int, final_dst: int) -> None:
        self._send(current, self.ring.next_node(current), origin, final_dst)

    def _send(self, src: int, dst: int, origin: int, final_dst: int) -> None:
        """One message of ``origin``'s round toward ``final_dst``: the whole
        path under hardware routing, one ring hop under software routing."""
        on_failed = (partial(self._on_send_failed, via_reverse=self._rerouted,
                             resend=partial(self._send, src, dst, origin, final_dst))
                     if self._reliable else None)
        self.ctx.send(src, dst, self.message_bytes, self._route(src, dst),
                      (self.label, origin, final_dst), self._delivered, on_failed)

    def _delivered(self, record: DeliveryRecord) -> None:
        if self._stats is not None:
            self._stats.record(record, self._events.now)
        # record[2] is the receiving hop, record[4] the round's tag.
        _label, origin, final_dst = record[4]
        here = record[2]
        ring = self.ring
        # NORMAL pacing: issue the origin's next round once this round has
        # cleared its injection point — the first ring hop under software
        # routing, full delivery under hardware routing (where a message
        # is only delivered at its destination).
        first_hop_cleared = (here == final_dst if self._hardware
                             else here == ring.next_node(origin))
        if first_hop_cleared and self._paced:
            # A message's round is its origin-to-destination distance.
            round_index = (ring.position(final_dst) - ring.position(origin)) % ring.size
            if (self._rounds_issued[origin] == round_index
                    and round_index < ring.size - 1):
                self._issue_round(origin, round_index + 1)

        if self._receiver == 1:
            # Quotient run: the hop landed on the sender's successor.  Its
            # translate one position back is what the sender receives from
            # its predecessor.  (Pacing above already acted on the origin,
            # the sender itself whenever a first hop cleared.)
            here = record[1]
            origin = ring.prev_node(origin)
            final_dst = ring.prev_node(final_dst)
        if here == final_dst:
            self._at(self._events.now + self.ctx.endpoint_delay_cycles,
                     partial(self._deliver, final_dst, _A2AReceive(origin)))
        else:
            # Relay: the intermediate messaging unit forwards without
            # needing that node's own chunk data, so no join gating.
            self._at(self._events.now + self.ctx.endpoint_delay_cycles,
                     partial(self._send_hop, here, origin, final_dst))

    # -- lifecycle ----------------------------------------------------------------

    def _on_join(self, node: int) -> None:
        if self._paced:
            self._issue_round(node, 1)
        else:
            for r in range(1, self.ring.size):
                self._issue_round(node, r)
        self._maybe_done(node)

    def _process(self, node: int, item: _A2AReceive) -> None:
        self._received[node] += 1
        self._maybe_done(node)

    def _maybe_done(self, node: int) -> None:
        wanted = self.ring.size - 1
        if (self._received[node] == wanted
                and self._rounds_issued[node] == wanted
                and not self.node_done(node)):
            self._mark_done(node)
