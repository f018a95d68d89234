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
The per-flit path pops one flit at a time off the head run.

Flit bursts
-----------

When every queued flit is on a single-hop path (no credit to take, no
upstream to release, the destination sinks flits immediately), the
port's whole drain is a pure function of its queues: strict round-robin
over the occupied VCs, each flit serializing for
``max(size, 1) / bytes_per_cycle`` cycles back to back.  One planner,
:meth:`TxPort._plan`, computes it with numpy over arrays of packet runs
in VC-major order: the pick order (a rounds × VCs grid, masked and
ravelled), the serialization ``cumsum``, each message's last arrival
(from its runs' last picks) and, as flits commit, the link's byte and
busy-cycle totals.  ``cumsum`` adds strictly in order and every other
float is the per-flit path's own expression, so each float equals the
per-flit path's.  One burst-end event plus one delivery event per
message replace two events per flit.  A message reaching an idle port is
planned straight from its packet arrays; runs left in the queues are
collected by :meth:`TxPort._start_burst`.

Any interposed enqueue splits the burst (:meth:`TxPort._split_burst`):
the already-transmitted prefix is committed, the rest is requeued as
packet runs, and arbitration resumes — including the new packets — when
the in-flight flit completes, exactly when the per-flit path would have
re-arbitrated.  Multi-hop traffic, and any run with live fault injection
(which can retime links mid-flight), takes the per-flit path.

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

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from repro.config.parameters import NetworkConfig
from repro.errors import NetworkError
from repro.events.engine import EventHandle, EventQueue
from repro.network.link import Link


def _accumulate(total: float, values: np.ndarray) -> float:
    """``total`` plus each of ``values`` in turn, added in order."""
    acc = np.empty(len(values) + 1)
    acc[0] = total
    acc[1:] = values
    return float(acc.cumsum()[-1])


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


@dataclass(slots=True)
class _Burst:
    """An in-flight transmission plan for one :class:`TxPort`.

    The plan's packet runs are in VC-major FIFO order: run ``r`` is
    ``run_flits[r]`` flits (the last one ``run_tails[r]`` bytes) of
    message ``run_owners[r]``, whose context is ``owners[run_owners[r]]``,
    queued on VC ``vcs[run_slots[r]]``; its flits are the VC-major flats
    ending before ``run_ends[r]``, and slot ``s``'s flats start at
    ``heads[s]``.  Pick ``i``, the ``i``-th flit transmitted, is flat
    ``picks[i]`` on slot ``slots[i]``, transmits over ``[starts[i],
    ends[i])`` and arrives at ``arrivals[i]``; picks before ``committed``
    have had their stats and round-robin effects applied.
    ``deliveries`` holds ``(owner, last pick, handle)`` per message in the
    order they were scheduled.
    """

    vcs: list[int]
    owners: list
    run_owners: np.ndarray
    run_slots: np.ndarray
    run_flits: np.ndarray
    run_tails: np.ndarray
    run_ends: np.ndarray
    heads: np.ndarray
    picks: np.ndarray
    slots: np.ndarray
    sizes: np.ndarray
    sers: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    arrivals: np.ndarray
    deliveries: list
    end_handle: EventHandle
    committed: int = 0


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
        self.queues: list[deque] = [deque() for _ in range(network.vcs_per_vnet)]
        self.credits: list[int] = [network.buffers_per_vc] * network.vcs_per_vnet
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
        #: Queued flits that disqualify bursting (multi-hop, or final hop
        #: of a multi-hop path, which still must release upstream credits
        #: at exact transmission times).  Zero means every queued flit is
        #: a pure single-hop sink and the whole drain can be batched.
        self._nonburst_queued = 0

    # -- queue interface --------------------------------------------------------

    def enqueue(self, vc: int, ctx: HopContext, flits: int, tail: float) -> None:
        """Queue a run of ``flits`` flits of one packet on ``vc``."""
        if self._burst is not None:
            # New arbitration input: commit what the per-flit path would
            # already have transmitted, requeue the rest, re-plan when the
            # in-flight flit completes.
            self._split_burst()
        self.queues[vc].append((ctx, flits, tail))
        if ctx.upstream is not None or not ctx.is_last_hop:
            self._nonburst_queued += flits
        self._try_send()

    def enqueue_packets(self, ctx: HopContext, first_vc: int,
                        flits: np.ndarray, tails: np.ndarray) -> None:
        """Queue one message's packets at its first hop: packet ``i`` is a
        run of ``flits[i]`` flits ending in a ``tails[i]``-byte flit, on VC
        ``(first_vc + i) % vcs``.  ``DetailedBackend.send`` is the caller.

        Identical to :meth:`enqueue` per packet.  A single-hop message on
        a burst-ready port takes no per-packet step: on an idle port (its
        queues are then empty) the packet arrays are planned as one burst
        directly, and on a transmitting port the burst is split once and
        every packet queued in one pass, which is exact because nothing
        arbitrates before the in-flight flit completes.
        """
        queues = self.queues
        n = len(queues)
        if not (self.burst_enabled and self._nonburst_queued == 0
                and ctx.is_last_hop):
            for i, (count, tail) in enumerate(zip(flits.tolist(), tails.tolist())):
                self.enqueue((first_vc + i) % n, ctx, count, tail)
            return
        # Slot s holds packets s, s + n, s + 2n, ... on VC vcs[s].
        vcs = [*range(first_vc, n), *range(first_vc)][:len(flits)]
        if not self._sending:
            # The per-flit path picks packet 0's VC first (the only one
            # occupied when arbitration runs), then round-robin from the
            # next: round-robin over the message's VCs from ``first_vc``.
            slots = np.arange(len(flits))
            if len(flits) > n:
                slots %= n
                runs = np.argsort(slots, kind="stable")
                slots, flits, tails = slots[runs], flits[runs], tails[runs]
            self._plan(vcs, [ctx], np.zeros(len(flits), dtype=np.intp),
                       slots, flits, tails)
            return
        if self._burst is not None:
            self._split_burst()
        counts, sizes = flits.tolist(), tails.tolist()
        for k, vc in enumerate(vcs):
            queues[vc].extend(zip(repeat(ctx), counts[k::n], sizes[k::n]))

    def queued_flits(self) -> int:
        """Flits waiting in this port's VC queues (burst plans hold none:
        a burst pops its snapshot out of the queues and requeues leftovers
        on split, so at quiescence this is exactly the stuck-flit count)."""
        return sum(flits for queue in self.queues for _ctx, flits, _tail in queue)

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
        n = len(self.queues)
        for offset in range(n):
            vc = (self._rr + offset) % n
            if not self.queues[vc]:
                continue
            ctx = self.queues[vc][0][0]
            if ctx.is_last_hop or self.credits[vc] > 0:
                self._rr = (vc + 1) % n
                return vc
        return None

    def _try_send(self) -> None:
        if self._sending:
            return
        if self.burst_enabled and self._nonburst_queued == 0:
            self._start_burst()
            return
        vc = self._pick_vc()
        if vc is None:
            return
        self._sending = True
        queue = self.queues[vc]
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

        # Serialization: efficiency models the header phits per flit.
        link = self.link
        config = link.config
        if config is not self._bpc_config:
            self._bytes_per_cycle = config.effective_bytes_per_cycle(link.clock)
            self._bpc_config = config
        ser = max(size, 1.0) / self._bytes_per_cycle
        self.flits_sent += 1
        stats = link.stats
        stats.bytes += size
        # det: allow[float-accumulation] one link = one time-ordered flit stream
        stats.busy_cycles += ser

        self.events.schedule(ser, self._tx_done)
        self.events.schedule(
            ser + config.latency_cycles,
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

    def _start_burst(self) -> None:
        """Collect every queued run and plan the drain as one burst.

        Only called when every queued flit is single-hop (see
        ``_nonburst_queued``).  Runs are taken VC-major from ``_rr``, the
        order repeated ``_pick_vc`` calls scan the VCs in (no credit
        gating applies to last-hop flits), FIFO within each VC.
        """
        queues = self.queues
        n = len(queues)
        vcs: list[int] = []
        counts: list[int] = []
        snapshot: list = []
        for vc in [*range(self._rr, n), *range(self._rr)]:
            queue = queues[vc]
            if queue:
                vcs.append(vc)
                counts.append(len(queue))
                snapshot += queue
                queue.clear()
        if not snapshot:
            return
        ctxs, flits, tails = zip(*snapshot)
        # One owner per message (one context per send), numbered in
        # first-queued order.
        ids = list(map(id, ctxs))
        by_id = dict(zip(ids, ctxs))
        number = dict(zip(by_id, range(len(by_id))))
        run_owners = np.fromiter(map(number.__getitem__, ids), dtype=np.intp,
                                 count=len(ids))
        self._plan(vcs, list(by_id.values()), run_owners,
                   np.repeat(np.arange(len(vcs)), counts),
                   np.array(flits), np.array(tails))

    def _plan(self, vcs: list[int], owners: list, run_owners: np.ndarray,
              run_slots: np.ndarray, run_flits: np.ndarray,
              run_tails: np.ndarray) -> None:
        """Plan and schedule the drain of packet runs as one burst.

        The runs are in VC-major FIFO order over slots ``0..len(vcs)-1``
        (``run_slots`` never decreases), slot ``s`` being VC ``vcs[s]``;
        round-robin starts at slot 0.  Run ``r`` belongs to message
        ``owners[run_owners[r]]`` (see :class:`_Burst`).
        """
        run_ends = run_flits.cumsum()
        total = int(run_ends[-1])
        sizes = np.full(total, self._flit_bytes)
        sizes[run_ends - 1] = run_tails

        # Pick order: round r takes flit r of every VC that has one.  A
        # rounds x VCs grid masked by each VC's flit count, ravelled in
        # row order, is that sequence; ``heads`` index the VC-major flats.
        lengths = np.bincount(run_slots, weights=run_flits).astype(np.int64)
        heads = lengths.cumsum() - lengths
        rounds, slots = np.nonzero(np.arange(lengths.max())[:, None] < lengths)
        picks = heads[slots] + rounds
        sizes = sizes[picks]

        link = self.link
        config = link.config
        if config is not self._bpc_config:
            self._bytes_per_cycle = config.effective_bytes_per_cycle(link.clock)
            self._bpc_config = config
        # ``end = start + ser`` chained by cumsum, and ``arrival = start +
        # (ser + latency)``: the per-flit path's schedule() expressions.
        sers = np.maximum(sizes, 1.0) / self._bytes_per_cycle
        bounds = np.empty(total + 1)
        bounds[0] = self.events.now
        bounds[1:] = sers
        bounds = bounds.cumsum()
        starts = bounds[:-1]
        arrivals = starts + (sers + config.latency_cycles)

        # Each message gets one delivery, at its last flit's arrival; a
        # message's last pick is the latest of its runs' last picks, and
        # arrivals rise with the pick, so deliveries are scheduled in time
        # order.
        if len(owners) == 1:
            order, last_picks, counts = [0], [total - 1], [total]
        else:
            pick_of = np.empty(total, dtype=np.intp)
            pick_of[picks] = np.arange(total)
            last = np.zeros(len(owners), dtype=np.intp)
            np.maximum.at(last, run_owners, pick_of[run_ends - 1])
            by_last = np.argsort(last)
            order = by_last.tolist()
            last_picks = last[by_last].tolist()
            counts = (np.bincount(run_owners, weights=run_flits)[by_last]
                      .astype(np.int64).tolist())
        schedule_at = self.events.schedule_at
        deliveries = []
        for owner, last_pick, count in zip(order, last_picks, counts):
            handle = schedule_at(float(arrivals[last_pick]),
                                 partial(self._deliver, owners[owner], count))
            deliveries.append((owner, last_pick, handle))

        self._sending = True
        self._burst = _Burst(
            vcs=vcs, owners=owners, run_owners=run_owners, run_slots=run_slots,
            run_flits=run_flits, run_tails=run_tails, run_ends=run_ends,
            heads=heads, picks=picks, slots=slots, sizes=sizes, sers=sers,
            starts=starts, ends=bounds[1:], arrivals=arrivals,
            deliveries=deliveries,
            end_handle=schedule_at(float(bounds[-1]), self._burst_end),
        )

    def _commit_upto(self, burst: _Burst, cut: int) -> None:
        """Apply transmit effects for picks ``[committed, cut)``.

        Mirrors the per-flit path's effects in pick order: link stats
        accumulation (same floats, same order), flit counter, and the
        round-robin pointer advancing past the last transmitted VC.
        Credits two logical events per flit — the tx-done and arrival
        dispatches the per-flit path would have run.
        """
        done = burst.committed
        if cut <= done:
            return
        burst.committed = cut
        self.flits_sent += cut - done
        self.events.credit_batched(2 * (cut - done))
        stats = self.link.stats
        stats.bytes = _accumulate(stats.bytes, burst.sizes[done:cut])
        stats.busy_cycles = _accumulate(stats.busy_cycles, burst.sers[done:cut])
        self._rr = (burst.vcs[burst.slots[cut - 1]] + 1) % len(self.queues)

    def _split_burst(self) -> None:
        """Interposition: stop the burst at ``now`` and requeue the rest.

        The per-flit path would have transmitted every flit whose start
        time is <= now (a flit starting exactly at ``now`` wins: its
        tx-done event was scheduled before the interposing one, so it
        re-arbitrates first).  Those are committed; the rest go back to
        their VC queues as packet runs in FIFO order, and a resume event
        at the in-flight flit's completion re-plans with the new arrival
        included — exactly when per-flit arbitration would next run.
        """
        burst = self._burst
        self._burst = None
        now = self.events.now
        cut = int(np.searchsorted(burst.starts, now, side="right"))
        self._commit_upto(burst, cut)
        if cut >= len(burst.picks):
            # Everything already transmitted; the pending end event doubles
            # as the resume point.
            return
        burst.end_handle.cancel()
        schedule_at = self.events.schedule_at
        schedule_at(float(burst.ends[cut - 1]), self._burst_end)

        # Each VC transmits its flats in order, so a slot's first unsent
        # flat is its head plus the picks it has had; a run has sent the
        # part of it before that.
        slot_sent = np.bincount(burst.slots[:cut], minlength=len(burst.vcs))
        run_starts = burst.run_ends - burst.run_flits
        unsent = (burst.heads + slot_sent)[burst.run_slots]
        sent = np.clip(unsent - run_starts, 0, burst.run_flits)
        pick_of = np.empty(len(burst.picks), dtype=np.intp)
        pick_of[burst.picks] = np.arange(len(burst.picks))
        begun = np.flatnonzero(sent)
        last_sent = np.full(len(burst.owners), -1)
        np.maximum.at(last_sent, burst.run_owners[begun],
                      pick_of[run_starts[begun] + sent[begun] - 1])
        owner_sent = np.bincount(burst.run_owners, weights=sent,
                                 minlength=len(burst.owners))
        for owner, last, handle in burst.deliveries:
            if last < cut:
                continue  # fully committed; delivery time stands as planned
            handle.cancel()
            if last_sent[owner] >= 0:
                # Deliver the transmitted prefix at its own last arrival.
                # With zero propagation latency that can already be in the
                # past (the per-flit path delivered those flits before the
                # interposing event); clamping to now only retimes counter
                # decrements — the message's final, visible delivery always
                # rides the last chunk, whose arrival is in the future.
                at = float(burst.arrivals[last_sent[owner]])
                schedule_at(at if at > now else now,
                            partial(self._deliver, burst.owners[owner],
                                    int(owner_sent[owner])))

        # The unsent runs, a partly sent one keeping its tail, go back to
        # their VCs in FIFO order, one extend per VC.
        remaining = burst.run_flits - sent
        left = np.flatnonzero(remaining)
        slots = burst.run_slots[left]
        cuts = (np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist()
        owners = map(burst.owners.__getitem__, burst.run_owners[left].tolist())
        runs = list(zip(owners, remaining[left].tolist(),
                        burst.run_tails[left].tolist()))
        queues = self.queues
        for begin, end in zip([0, *cuts], [*cuts, len(runs)]):
            queues[burst.vcs[slots[begin]]].extend(runs[begin:end])

    def _burst_end(self) -> None:
        # This dispatch stands in for one per-flit tx-done already credited
        # by _commit_upto; debit it so logical event counts match exactly.
        self.events.credit_batched(-1)
        self._sending = False
        burst = self._burst
        if burst is not None:
            # Any enqueue since the plan would have split the burst, and the
            # plan took everything queued, so the queues are empty.
            self._burst = None
            self._commit_upto(burst, len(burst.picks))
            return
        self._try_send()

    def _deliver(self, ctx: HopContext, flits: int) -> None:
        # Stands in for one per-flit arrival dispatch (see _burst_end).
        self.events.credit_batched(-1)
        if self.observer is not None:
            self.observer.flits_delivered(ctx.on_delivered, flits)
        ctx.on_delivered(flits)
