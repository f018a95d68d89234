"""Transmission ports with virtual channels and credit flow control.

The detailed backend models every physical link as a :class:`TxPort`: a
set of per-VC flit queues arbitrated round-robin, transmitting one flit
at a time, gated by credits from the downstream buffer (``buffers_per_vc``
slots per VC, Table III #28).  A flit occupies its downstream buffer slot
from transmission start until it departs on the next hop (or is consumed
by the destination NPU, which sinks flits immediately).

This is wormhole switching with flit-level VC interleaving — the same
flow-control family as Garnet, minus per-router microarchitectural
pipeline stages (the per-hop router latency is charged as a constant,
Table III #25).

Packet runs
-----------

No flit is an object.  A VC queue holds *packet runs*
``(ctx, flits, tail)``: the next ``flits`` flits of one packet, each
``flit_width_bytes`` wide except the last, which carries ``tail`` bytes.
The per-flit path pops one flit at a time off the head run.  A VC's
queue is created by its first append: a port that only bursts never
builds one.

Flit bursts
-----------

When every queued flit is on a single-hop path (no credit to take, no
upstream to release, the destination sinks flits immediately), the
port's whole drain is a pure function of its queues: strict round-robin
over the occupied VCs, each flit serializing for
``max(size, 1) / bytes_per_cycle`` cycles back to back.  A plan holds
the picks (the flits in transmission order) as segments ``(size, ser,
count)``, runs of picks of one size.  Every float a burst needs — flit
boundaries, each message's last arrival, the burst end, the link's byte
and busy-cycle totals — is a chain of the per-flit path's own additions,
one per flit, and :func:`_advance` computes a segment's chain exactly in
O(binades), so each float equals the per-flit path's bit for bit.  One
burst-end event plus one delivery event per message replace two events
per flit.

A message reaching an idle port is planned from its packet structure
(:meth:`TxPort._plan_packets`): packet ``i`` is on slot ``i % n`` and
every packet but the last is the same, so each round picks one flit size
on every slot but the last packet's, a few segments.  Queued runs are
planned by :meth:`TxPort._plan` over *bands*, ranges of slots holding
the same runs, sweeping the rounds from one size change of any band to
the next.

Any interposed enqueue splits the burst (:meth:`TxPort._split_burst`):
the already-transmitted prefix is committed, and arbitration resumes —
including the new packets — when the in-flight flit completes, exactly
when the per-flit path would have re-arbitrated.  Pick order is round by
round, slot by slot, so the round and slot of the last sent pick give
every slot's sent flits, and from them each message's sent flits and
last pick, in O(bands x runs) without walking the picks.  The unsent
runs are held, with whatever is enqueued before the resume, and merged
VC-major, FIFO within each VC (or handed to the VC queues if the
per-flit path must run).  Multi-hop traffic, and any run with live fault
injection (which can retime links mid-flight), takes the per-flit path.

Given the same enqueues, a port transmits and delivers every flit at the
per-flit path's times.  A burst schedules its deliveries when it is
planned, though, so deliveries from different ports that land on one
timestamp can fire in another order than the per-flit path's, and a
collective that reacts to that order can diverge: the 4x2x1 torus
300 KB all-reduce finishes 4 cycles earlier with bursts than without.

Folded dispatches feed :attr:`EventQueue.events_simulated` via
``credit_batched``: each commit credits two logical events per flit (the
tx-done and arrival the per-flit path would have dispatched) and each
piece of burst machinery that actually fires (burst end, delivery)
debits one, so the logical event count equals the per-flit path's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from math import ulp
from typing import Callable, Optional

from repro.config.parameters import NetworkConfig
from repro.errors import NetworkError
from repro.events.engine import EventHandle, EventQueue
from repro.network.link import Link


@dataclass(slots=True)
class HopContext:
    """Everything a packet's flits need to traverse their remaining path."""

    path: list[Link]
    hop: int
    upstream: Optional["TxPort"]
    #: Delivery sink, called with a flit count as flits reach the
    #: destination; one per send, so it also names the message in the
    #: sanitizer's flit ledger.
    on_delivered: Callable[[int], None]
    #: The backend's link -> port lookup, for forwarding to the next hop.
    #: It travels with the packet rather than living on each port: a port
    #: holding it would make the backend's port table a reference cycle.
    port_for: Callable[[Link], "TxPort"]

    @property
    def is_last_hop(self) -> bool:
        return self.hop == len(self.path) - 1


#: The top of a double's binade (and of the subnormals) in its ulps.
_TOP_UNITS = 2 ** 53


def _advance(start: float, step: float, count: int) -> float:
    """``start`` after ``count`` sequential IEEE-754 additions of
    ``step >= 0``, bit for bit, in O(binades) rather than O(count).

    While a sum stays inside the binade of ``total``, whose ulp is
    ``unit``, every addition rounds ``step`` to the same multiple of
    ``unit``, so those additions are one exact product.  Additions go one
    at a time while ``step >= total`` (the sum leaves the binade at
    once), at the binade's top (the next binade's ulp rounds there), and
    at an exact half-ulp tie on an odd significand: ties round to even,
    and after one the significand is even and every later tie rounds the
    same way.
    """
    total = start
    if not step:
        return total
    while count:
        if step < total:
            unit = ulp(total)
            ratio = step / unit
            whole = int(ratio)
            half = ratio - whole
            significand = int(total / unit)
            if half != 0.5 or not significand & 1:
                # The multiple of ``unit`` each addition adds: ties round
                # to the even significand, so an odd multiple rounds up.
                whole += whole & 1 if half == 0.5 else half > 0.5
                if not whole:
                    return total  # each addition rounds back to ``total``
                # Additions whose sum stays a unit below the binade's top.
                fit = min((_TOP_UNITS - 1 - significand) // whole, count)
                total += fit * whole * unit
                count -= fit
                if not count:
                    break
        # At the top of the binade, an odd tie, or ``step >= total``.
        total += step
        count -= 1
    return total


@dataclass(slots=True)
class _Burst:
    """An in-flight transmission plan for one :class:`TxPort`.

    Slot ``s`` is VC ``(base + s) % vcs``; round-robin starts at slot 0.
    The picks, the flits in transmission order, are ``segments`` of
    ``(size, ser, count)``: ``count`` flits of ``size`` bytes serializing
    for ``ser`` cycles each.  Segment ``k``'s first pick is pick
    ``firsts[k]`` and starts at ``starts[k]``; both lists end with the
    pick total and the burst's end.  The last pick is on slot
    ``last_slot``.  ``deliveries`` holds ``(owner, last pick, handle)``
    per message ``owners[owner]``, in scheduling order.

    Only a split reads ``bands``: the occupied slots, in slot order, as
    ``(slot, width, groups)``: slots ``slot`` to ``slot + width - 1``
    each hold the packet runs ``groups``, FIFO.  A group ``(owner,
    flits, tail, packets)`` is ``packets`` runs of message
    ``owners[owner]``, each ``flits`` flits with a ``tail``-byte last
    one.  A burst planned from one message's ``packets`` builds them on
    first use.
    """

    base: int
    owners: list
    segments: list
    firsts: list
    starts: list
    latency: float
    last_slot: int
    deliveries: list
    packets: Optional[tuple] = None
    bands: Optional[list] = None
    end_handle: EventHandle = field(init=False)

    def start(self, pick: int) -> float:
        """When pick ``pick`` (``< firsts[-1]``) starts transmitting."""
        k = bisect_right(self.firsts, pick) - 1
        return _advance(self.starts[k], self.segments[k][1], pick - self.firsts[k])

    def arrival(self, pick: int) -> float:
        """When pick ``pick`` arrives: the per-flit path's
        ``start + (ser + latency)``."""
        k = bisect_right(self.firsts, pick) - 1
        ser = self.segments[k][1]
        return (_advance(self.starts[k], ser, pick - self.firsts[k])
                + (ser + self.latency))


def _lengths(bands: list) -> list:
    """The flits on each slot of every band (see :class:`_Burst`)."""
    return [sum(flits * packets for _owner, flits, _tail, packets in groups)
            for _slot, _width, groups in bands]


def _pick(bands: list, lengths: list, rnd: int, slot: int) -> int:
    """The pick of round ``rnd`` on ``slot``: round ``r`` takes flit ``r``
    of every slot that has one, in slot order."""
    pick = 0
    for (first, width, _groups), length in zip(bands, lengths):
        pick += width * min(length, rnd)
        if length > rnd and slot > first:
            pick += min(slot - first, width)
    return pick


def _round_of(bands: list, lengths: list, pick: int) -> tuple[int, int]:
    """Pick ``pick``'s round and slot (the inverse of :func:`_pick`)."""
    active = sum(width for _slot, width, _groups in bands)
    done = previous = 0
    for length, width in sorted(zip(lengths, (band[1] for band in bands))):
        # Rounds ``[previous, length)`` take one flit from each slot at
        # least ``length`` long.
        span = (length - previous) * active
        if pick < done + span:
            break
        done += span
        previous = length
        active -= width
    rnd, rank = divmod(pick - done, active)
    rnd += previous
    for (first, width, _groups), length in zip(bands, lengths):
        if length > rnd:
            if rank < width:
                break
            rank -= width
    return rnd, first + rank


def _pick_sizes(bands: list, flit_bytes: float):
    """The picks over ``bands`` (see :class:`_Burst`) as ``(size, count)``
    runs in pick order.

    A stretch is a band's consecutive flits of one size.  Until the next
    stretch of any band ends, every round repeats one size pattern, so
    the sweep steps from one stretch end to the next.
    """
    live = []
    for _slot, width, groups in bands:
        stretches: list = []
        for _owner, flits, tail, packets in groups:
            if flits == 1 or tail == flit_bytes:
                parts: tuple = ((tail if flits == 1 else flit_bytes, flits * packets),)
            else:
                parts = ((flit_bytes, flits - 1), (tail, 1)) * packets
            for size, count in parts:
                if stretches and stretches[-1][0] == size:
                    stretches[-1][1] += count
                else:
                    stretches.append([size, count])
        # [stretches, current stretch, its rounds left, width]
        live.append([stretches, 0, stretches[0][1], width])
    while live:
        rounds = min(cursor[2] for cursor in live)
        pattern: list = []
        for stretches, current, _left, width in live:
            size = stretches[current][0]
            if pattern and pattern[-1][0] == size:
                pattern[-1][1] += width
            else:
                pattern.append([size, width])
        if len(pattern) == 1:
            yield pattern[0][0], rounds * pattern[0][1]
        else:
            for _round in range(rounds):
                yield from pattern
        for cursor in live:
            cursor[2] -= rounds
            if not cursor[2]:
                cursor[1] += 1
                if cursor[1] < len(cursor[0]):
                    cursor[2] = cursor[0][cursor[1]][1]
        live = [cursor for cursor in live if cursor[2]]


class TxPort:
    """The transmit side of one physical link in the detailed backend."""

    def __init__(
        self,
        link: Link,
        network: NetworkConfig,
        events: EventQueue,
    ):
        self.link = link
        self.network = network
        self.events = events
        self._flit_bytes = float(network.flit_width_bytes)
        self._vcs = network.vcs_per_vnet
        #: Per-VC run queues, each created by its first append.
        self.queues: list[Optional[deque]] = [None] * self._vcs
        self.credits: list[int] = [network.buffers_per_vc] * self._vcs
        self._rr = 0
        self._sending = False
        self.flits_sent = 0
        #: Optional conservation observer (repro.sanitize.runtime): credits
        #: taken and released, flits sunk at the destination.  ``None`` on
        #: the default path so instrumentation costs one attribute test.
        self.observer = None
        # Per-flit bandwidth memo keyed on config identity (fault-driven
        # degrades replace link.config, invalidating it) — this port
        # transmits every flit of every message crossing its link, so the
        # GB/s -> bytes/cycle derivation must not run per flit.
        self._bpc_config = None
        self._bytes_per_cycle = 0.0
        #: Flit bursts (module docstring).  The backend clears the flag
        #: while fault injection is live: a mid-burst link retiming would
        #: invalidate the precomputed plan.
        self.burst_enabled = True
        self._burst: Optional[_Burst] = None
        #: From a split to its resume, the queued runs as blocks, oldest
        #: first: the split's unsent runs, then messages queued since.  A
        #: block is bands ``(vc, width, groups)`` as in :class:`_Burst`, on
        #: VCs ``vc`` to ``vc + width - 1`` (mod the VC count), FIFO per VC,
        #: with each group's owner a :class:`HopContext`.  The VC queues
        #: are empty while it is a list.
        self._held: Optional[list] = None
        #: Queued flits that disqualify bursting (multi-hop, or final hop
        #: of a multi-hop path, which still must release upstream credits
        #: at exact transmission times).  Zero means every queued flit is
        #: a pure single-hop sink and the whole drain can be batched.
        self._nonburst_queued = 0

    # -- queue interface --------------------------------------------------------

    def _queue(self, vc: int) -> deque:
        """VC ``vc``'s run queue, created on first use."""
        queue = self.queues[vc]
        if queue is None:
            queue = self.queues[vc] = deque()
        return queue

    def enqueue(self, vc: int, ctx: HopContext, flits: int, tail: float) -> None:
        """Queue a run of ``flits`` flits of one packet on ``vc``."""
        if self._burst is not None:
            # New arbitration input: commit what the per-flit path would
            # already have transmitted, hold the rest, re-plan when the
            # in-flight flit completes.
            self._split_burst()
        if self._held is not None:
            self._spill()
        self._queue(vc).append((ctx, flits, tail))
        if ctx.upstream is not None or not ctx.is_last_hop:
            self._nonburst_queued += flits
        self._try_send()

    def enqueue_packets(self, ctx: HopContext, first_vc: int,
                        packets: tuple[int, int, float, int, float]) -> None:
        """Queue one message's packets at its first hop.

        ``packets`` is ``(count, flits, tail, last_flits, last_tail)``
        (:func:`~repro.network.detailed.backend.packet_flits`): packet ``i``
        is a run of ``flits`` flits ending in a ``tail``-byte flit, the last
        one ``last_flits`` flits ending in ``last_tail`` bytes, on VC
        ``(first_vc + i) % vcs``.  ``DetailedBackend.send`` is the caller.

        Identical to :meth:`enqueue` per packet.  A single-hop message on
        a burst-ready port takes no per-packet step: on an idle port (its
        queues are then empty) it is planned as one burst from its packet
        structure, and on a transmitting port the burst is split once and
        the packets held as one block, which is exact because nothing
        arbitrates before the in-flight flit completes.
        """
        if self.burst_enabled and self._nonburst_queued == 0 and ctx.is_last_hop:
            if not self._sending:
                self._plan_packets(ctx, first_vc, packets)
                return
            if self._burst is not None:
                self._split_burst()
            if self._held is not None:
                self._held.append(self._packet_runs(ctx, first_vc, packets))
                return
        count, flits, tail, last_flits, last_tail = packets
        n = self._vcs
        for i in range(count - 1):
            self.enqueue((first_vc + i) % n, ctx, flits, tail)
        self.enqueue((first_vc + count - 1) % n, ctx, last_flits, last_tail)

    def queued_flits(self) -> int:
        """Flits waiting in this port's VC queues and held runs (burst plans
        hold none: a split holds only its unsent runs, so at quiescence
        this is exactly the stuck-flit count)."""
        held = sum(width * flits * packets for block in self._held or ()
                   for _vc, width, groups in block
                   for _ctx, flits, _tail, packets in groups)
        return held + sum(flits for queue in self.queues if queue
                          for _ctx, flits, _tail in queue)

    def release_credit(self, vc: int) -> None:
        """Downstream buffer slot freed (flit departed the next hop)."""
        if self.observer is not None:
            self.observer.on_credit_released(self, vc)
        self.credits[vc] += 1
        if self.credits[vc] > self.network.buffers_per_vc:
            raise NetworkError(f"credit overflow on {self.link!r} vc={vc}")
        self._try_send()

    # -- arbitration / transmission ------------------------------------------------

    def _pick_vc(self) -> Optional[int]:
        """Round-robin over VCs that have a flit and (if needed) a credit."""
        n = self._vcs
        for offset in range(n):
            vc = (self._rr + offset) % n
            queue = self.queues[vc]
            if not queue:
                continue
            ctx = queue[0][0]
            if ctx.is_last_hop or self.credits[vc] > 0:
                self._rr = (vc + 1) % n
                return vc
        return None

    def _rate(self) -> float:
        """The link's bytes per cycle; efficiency models the header phits
        per flit."""
        config = self.link.config
        if config is not self._bpc_config:
            self._bytes_per_cycle = config.effective_bytes_per_cycle(self.link.clock)
            self._bpc_config = config
        return self._bytes_per_cycle

    def _try_send(self) -> None:
        if self._sending:
            return
        if self.burst_enabled and self._nonburst_queued == 0:
            self._start_burst()
            return
        if self._held is not None:
            self._spill()
        vc = self._pick_vc()
        if vc is None:
            return
        self._sending = True
        queue = self._queue(vc)
        ctx, flits, tail = queue[0]
        if flits == 1:
            queue.popleft()
            size = tail
        else:
            queue[0] = (ctx, flits - 1, tail)
            size = self._flit_bytes
        if ctx.upstream is not None or not ctx.is_last_hop:
            self._nonburst_queued -= 1

        if not ctx.is_last_hop:
            self.credits[vc] -= 1
            if self.observer is not None:
                self.observer.on_flit_transmit(self, vc, 1)
        if ctx.upstream is not None:
            # Leaving the buffer this flit occupied at the upstream hop.
            ctx.upstream.release_credit(vc)

        ser = max(size, 1.0) / self._rate()
        self.flits_sent += 1
        stats = self.link.stats
        stats.bytes += size
        # det: allow[float-accumulation] one link = one time-ordered flit stream
        stats.busy_cycles += ser

        self.events.schedule(ser, self._tx_done)
        self.events.schedule(
            ser + self.link.config.latency_cycles,
            lambda: self._arrive(vc, ctx, size),
        )

    def _tx_done(self) -> None:
        self._sending = False
        self._try_send()

    def _arrive(self, vc: int, ctx: HopContext, size: float) -> None:
        if ctx.is_last_hop:
            # The destination NPU sinks flits immediately; no credit was
            # consumed for the final hop.
            if self.observer is not None:
                self.observer.flits_delivered(ctx.on_delivered, 1)
            ctx.on_delivered(1)
            return
        next_port = ctx.port_for(ctx.path[ctx.hop + 1])
        next_ctx = HopContext(ctx.path, ctx.hop + 1, self, ctx.on_delivered,
                              ctx.port_for)
        self.events.schedule(
            self.network.router_latency_cycles,
            lambda: next_port.enqueue(vc, next_ctx, 1, size),
        )

    # -- flit bursts (single-hop drains) ------------------------------------------

    def _packet_runs(self, ctx: HopContext, first_vc: int, packets: tuple) -> list:
        """One message's packets as a block (see ``_held``).

        Offset ``i`` holds packets ``i``, ``i + width``, ... on VC
        ``first_vc + i``: offsets before the last packet's hold one more
        full packet than those after it.  Full packets whose flits are
        all full-width are one run (the per-flit path reads only flit
        sizes).
        """
        count, flits, tail, last_flits, last_tail = packets
        width = min(count, self._vcs)
        last = (count - 1) % width
        full = (count - 1) // width

        def runs(packets: int) -> list:
            if not packets:
                return []
            if tail == self._flit_bytes:
                return [(ctx, flits * packets, tail, 1)]
            return [(ctx, flits, tail, packets)]

        block = [(first_vc + last, 1,
                  runs(full) + [(ctx, last_flits, last_tail, 1)])]
        if last:
            block.insert(0, (first_vc, last, runs(full + 1)))
        if last + 1 < width:
            block.append((first_vc + last + 1, width - last - 1, runs(full)))
        return block

    def _queued_runs(self) -> list:
        """The VC queues' runs as one block (none if they are empty)."""
        block = [(vc, 1, [(ctx, flits, tail, 1)])
                 for vc, queue in enumerate(self.queues) if queue
                 for ctx, flits, tail in queue]
        if not block:
            return []
        for queue in self.queues:
            if queue:
                queue.clear()
        return [block]

    def _spill(self) -> None:
        """Put the held runs back in the VC queues, for the per-flit path."""
        for block in self._held:
            for first, width, groups in block:
                for vc in range(first, first + width):
                    queue = self._queue(vc % self._vcs)
                    for ctx, flits, tail, packets in groups:
                        queue.extend(repeat((ctx, flits, tail), packets))
        self._held = None

    def _merge(self, blocks: list, base: int) -> tuple[list, list]:
        """Blocks of bands, oldest first, as their owners and bands in
        slot order from VC ``base`` (see :class:`_Burst`), every slot's
        groups in arrival order.  One owner per message, named by its
        per-send delivery sink."""
        owners: list = []
        number: dict = {}
        n = self._vcs
        pieces = []
        for block in blocks:
            for vc, width, groups in block:
                renamed = []
                for ctx, flits, tail, packets in groups:
                    owner = number.get(ctx.on_delivered)
                    if owner is None:
                        owner = number[ctx.on_delivered] = len(owners)
                        owners.append(ctx)
                    renamed.append((owner, flits, tail, packets))
                start = (vc - base) % n
                if start + width > n:
                    pieces.append((0, start + width - n, renamed))
                    width = n - start
                pieces.append((start, start + width, renamed))
        # Cut the slots wherever a band starts or ends; each cell holds
        # the groups of every band over it, in band order.
        edges = sorted({edge for start, end, _groups in pieces for edge in (start, end)})
        cells: list = [[] for _edge in edges]
        for start, end, groups in pieces:
            for cell in range(bisect_left(edges, start), bisect_left(edges, end)):
                cells[cell] += groups
        return owners, [(edge, end - edge, cell)
                        for edge, end, cell in zip(edges, edges[1:], cells) if cell]

    def _start_burst(self) -> None:
        """Plan every queued run as one burst.

        Only called when every queued flit is single-hop (see
        ``_nonburst_queued``).  Runs are taken VC-major from ``_rr``, the
        order repeated ``_pick_vc`` calls scan the VCs in (no credit
        gating applies to last-hop flits), FIFO within each VC.
        """
        blocks = self._held
        self._held = None
        if blocks is None:
            blocks = self._queued_runs()
        if blocks:
            self._plan(self._rr, *self._merge(blocks, self._rr))

    def _plan_packets(self, ctx: HopContext, first_vc: int, packets: tuple) -> None:
        """Plan one message at an idle port from its packet structure.

        Packet ``i`` is on slot ``i % width`` (VC ``first_vc`` first: the
        per-flit path picks the only occupied VC, then round-robins from
        the next), so the slots before the last packet's carry one more
        full packet than the slots after it.  In every round, each slot
        holding a full packet picks the same flit size; the last packet's
        slot picks last among them.
        """
        count, flits, tail, last_flits, last_tail = packets
        width = min(count, self._vcs)
        last = (count - 1) % width  # the last packet's slot
        full = (count - 1) // width  # packet rounds on every slot
        body = self._flit_bytes
        # In the last packet's rounds, slots 0..last pick body flits until
        # its tail, then slots before it finish their full packets.
        sizes = ([(body, (flits - 1) * width), (tail, width)] * full
                 + [(body, (last + 1) * (last_flits - 1)),
                    (tail if last_flits == flits else body, last), (last_tail, 1)])
        if last_flits < flits:
            sizes += [(body, last * (flits - 1 - last_flits)), (tail, last)]
        total = (count - 1) * flits + last_flits
        # The last pick is on the last slot with the most flits.
        self._launch(first_vc, [ctx], sizes, [(0, total - 1, total)],
                     last if last_flits == flits or last == 0 else last - 1,
                     packets=packets)

    def _plan(self, base: int, owners: list, bands: list) -> None:
        """Plan the drain of ``bands`` (see :class:`_Burst`) as one burst."""
        lengths = _lengths(bands)
        flits = [0] * len(owners)
        #: Each owner's last flit as (round, slot); pick order is
        #: round-major, so the largest is its last pick.
        last_flit: dict = {}
        for first, width, groups in bands:
            position = 0
            for owner, run_flits, _tail, packets in groups:
                position += run_flits * packets
                flits[owner] += width * run_flits * packets
                last_flit[owner] = max(last_flit.get(owner, (-1, 0)),
                                       (position - 1, first + width - 1))
        lasts = sorted((_pick(bands, lengths, *last_flit[owner]), owner)
                       for owner in last_flit)
        # The last pick is on the last slot with the most flits.
        longest = max(lengths)
        last_slot = max(first + width - 1 for (first, width, _groups), length
                        in zip(bands, lengths) if length == longest)
        self._launch(base, owners, _pick_sizes(bands, self._flit_bytes),
                     [(owner, pick, flits[owner]) for pick, owner in lasts],
                     last_slot, bands=bands)

    def _launch(self, base: int, owners: list, sizes, lasts, last_slot: int,
                **lazy) -> None:
        """Schedule a burst of picks given as ``(size, count)`` runs in
        pick order; ``lasts`` holds ``(owner, last pick, flits)`` per
        message in last-pick order."""
        runs: list = []
        for size, count in sizes:
            if not count:
                continue
            if runs and runs[-1][0] == size:
                runs[-1][1] += count
            else:
                runs.append([size, count])
        rate = self._rate()
        segments, firsts, starts = [], [], []
        pick, at = 0, self.events.now
        for size, count in runs:
            ser = max(size, 1.0) / rate
            segments.append((size, ser, count))
            firsts.append(pick)
            starts.append(at)
            pick += count
            final = _advance(at, ser, count - 1)  # the segment's last start
            at = final + ser
        firsts.append(pick)
        starts.append(at)
        latency = self.link.config.latency_cycles
        schedule_at = self.events.schedule_at
        burst = _Burst(base, owners, segments, firsts, starts, latency,
                       last_slot, [], **lazy)
        # Arrivals rise with the pick, so deliveries go in time order.
        for owner, last, flits in lasts:
            arrival = (final + (ser + latency) if last == pick - 1
                       else burst.arrival(last))
            handle = schedule_at(arrival, partial(self._deliver, owners[owner], flits))
            burst.deliveries.append((owner, last, handle))
        burst.end_handle = schedule_at(at, self._burst_end)
        self._sending = True
        self._burst = burst

    def _commit(self, burst: _Burst, cut: int, slot: int) -> None:
        """Apply transmit effects for picks ``[0, cut)``, the last on slot
        ``slot``, once per burst: when it ends, or when a split stops it.

        Mirrors the per-flit path's effects in pick order: link stats
        accumulation (same floats, same order), flit counter, and the
        round-robin pointer advancing past the last transmitted VC.
        Credits two logical events per flit — the tx-done and arrival
        dispatches the per-flit path would have run.
        """
        self.flits_sent += cut
        self.events.credit_batched(2 * cut)
        stats = self.link.stats
        sent, busy = stats.bytes, stats.busy_cycles
        for (size, ser, count), first in zip(burst.segments, burst.firsts):
            if first >= cut:
                break
            count = min(count, cut - first)
            sent = _advance(sent, size, count)
            busy = _advance(busy, ser, count)
        stats.bytes, stats.busy_cycles = sent, busy
        self._rr = (burst.base + slot + 1) % self._vcs

    def _split_burst(self) -> None:
        """Interposition: stop the burst at ``now`` and hold the rest.

        The per-flit path would have transmitted every flit whose start
        time is <= now (a flit starting exactly at ``now`` wins: its
        tx-done event was scheduled before the interposing one, so it
        re-arbitrates first).  Those are committed; the rest are held as
        packet runs in FIFO order, and a resume event at the in-flight
        flit's completion re-plans with the new arrival included —
        exactly when per-flit arbitration would next run.
        """
        burst = self._burst
        self._burst = None
        self._held = []
        now = self.events.now
        firsts, starts = burst.firsts, burst.starts
        total = firsts[-1]
        # The last segment starting by now, then its picks starting by now
        # (starts rise with the pick, and a quotient estimate is nearly
        # always exact; an unbounded link serializes in zero cycles).
        k = bisect_right(starts, now, 0, len(burst.segments)) - 1
        _size, ser, count = burst.segments[k]
        low, high = 1, count
        guess = min(max(int((now - starts[k]) / ser) + 1, low), high) if ser else high
        if (_advance(starts[k], ser, guess - 1) <= now
                and (guess == count or _advance(starts[k], ser, guess) > now)):
            low = high = guess
        while low < high:
            middle = (low + high) // 2
            if _advance(starts[k], ser, middle) <= now:
                low = middle + 1
            else:
                high = middle
        cut = firsts[k] + low
        if cut >= total:
            # Everything already transmitted; the pending end event doubles
            # as the resume point.
            self._commit(burst, total, burst.last_slot)
            return
        if burst.bands is None:
            block = self._packet_runs(burst.owners[0], burst.base, burst.packets)
            burst.bands = self._merge([block], burst.base)[1]
        bands = burst.bands
        lengths = _lengths(bands)
        # The last sent pick's round and slot: every slot sent its flits
        # before that round, and in it the slots up to that one, one more.
        rnd, last_slot = _round_of(bands, lengths, cut - 1)
        self._commit(burst, cut, last_slot)
        burst.end_handle.cancel()
        schedule_at = self.events.schedule_at
        schedule_at(burst.start(cut), self._burst_end)

        # Each owner's sent flits and last sent flit (as in _plan), and
        # the unsent runs, a partly sent packet keeping its tail.
        owners = burst.owners
        owner_sent = [0] * len(owners)
        last_sent: dict = {}
        held = []
        for (first, width, groups), length in zip(bands, lengths):
            if length <= rnd:
                pieces: tuple = ((first, width, length),)
            else:
                ahead = min(max(last_slot + 1 - first, 0), width)
                pieces = ((first, ahead, rnd + 1), (first + ahead, width - ahead, rnd))
            for start, span, left in pieces:
                if not span:
                    continue
                unsent = []
                position = 0
                for owner, flits, tail, packets in groups:
                    done = min(left, flits * packets)
                    left -= done
                    position += done
                    if done:
                        owner_sent[owner] += span * done
                        last_sent[owner] = max(last_sent.get(owner, (-1, 0)),
                                               (position - 1, start + span - 1))
                    if done < flits * packets:
                        whole, part = divmod(done, flits)
                        if part:
                            unsent.append((owners[owner], flits - part, tail, 1))
                            whole += 1
                        if packets > whole:
                            unsent.append((owners[owner], flits, tail, packets - whole))
                if unsent:
                    held.append(((burst.base + start) % self._vcs, span, unsent))

        for owner, last, handle in burst.deliveries:
            if last < cut:
                continue  # fully committed; delivery time stands as planned
            handle.cancel()
            if owner in last_sent:
                # Deliver the transmitted prefix at its own last arrival.
                # With zero propagation latency that can already be in the
                # past (the per-flit path delivered those flits before the
                # interposing event); clamping to now only retimes counter
                # decrements — the message's final, visible delivery always
                # rides the last chunk, whose arrival is in the future.
                at = burst.arrival(_pick(bands, lengths, *last_sent[owner]))
                schedule_at(at if at > now else now,
                            partial(self._deliver, owners[owner], owner_sent[owner]))
        self._held.append(held)

    def _burst_end(self) -> None:
        # This dispatch stands in for one per-flit tx-done already credited
        # by _commit; debit it so logical event counts match exactly.
        self.events.credit_batched(-1)
        self._sending = False
        burst = self._burst
        if burst is not None:
            # Any enqueue since the plan would have split the burst, and the
            # plan took everything queued, so the queues are empty.
            self._burst = None
            self._commit(burst, burst.firsts[-1], burst.last_slot)
            return
        self._try_send()

    def _deliver(self, ctx: HopContext, flits: int) -> None:
        # Stands in for one per-flit arrival dispatch (see _burst_end).
        self.events.credit_batched(-1)
        if self.observer is not None:
            self.observer.flits_delivered(ctx.on_delivered, flits)
        ctx.on_delivered(flits)
