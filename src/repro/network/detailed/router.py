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
``max(size, 1) / bytes_per_cycle`` cycles back to back.
:meth:`TxPort._start_burst` plans it with numpy over the runs: the pick
order (a rounds × VCs grid, masked and ravelled), the serialization
``cumsum``, each message's last arrival and, as flits commit, the link's
byte and busy-cycle totals.  ``cumsum`` adds strictly in order and every
other float is the per-flit path's own expression, so each float equals
the per-flit path's.  One burst-end event plus one delivery event per
message replace two events per flit.

Any interposed enqueue splits the burst (:meth:`TxPort._split_burst`):
the already-transmitted prefix is committed, the rest is requeued as
packet runs, and arbitration resumes — including the new packet — when
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
    return float(np.cumsum(acc)[-1])


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

    ``run_*`` describe the snapshot's packet runs in VC-major FIFO order
    (``run_slots`` index ``vcs``).  Pick ``i``, the ``i``-th flit
    transmitted, belongs to run ``runs[i]``, transmits over
    ``[starts[i], ends[i])`` and arrives at ``arrivals[i]``; picks before
    ``committed`` have had their stats and round-robin effects applied.
    ``deliveries`` holds ``(owner, ctx, last pick, handle)`` per message
    in the order they were scheduled; ``run_owners`` maps runs to owners.
    """

    vcs: list[int]
    run_ctxs: tuple
    run_tails: tuple
    run_slots: list[int]
    run_flits: np.ndarray
    run_owners: np.ndarray
    runs: np.ndarray
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

        Identical to :meth:`enqueue` per packet.  On an idle, empty port a
        single-hop message takes one pinned burst instead: the per-flit
        path's first pick is packet 0's VC (the only occupied queue when
        arbitration first runs), then round-robin over everything, so one
        plan replaces the plan/split/replan cycle.
        """
        queues = self.queues
        n = len(queues)
        runs = zip(flits.tolist(), tails.tolist())
        if (self.burst_enabled and not self._sending
                and self._nonburst_queued == 0 and ctx.is_last_hop
                and not any(queues)):
            for i, (count, tail) in enumerate(runs):
                queues[(first_vc + i) % n].append((ctx, count, tail))
            self._start_burst(pin_first=first_vc)
            return
        for i, (count, tail) in enumerate(runs):
            self.enqueue((first_vc + i) % n, ctx, count, tail)

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

    def _start_burst(self, pin_first: Optional[int] = None) -> None:
        """Plan and schedule the whole queued drain as one burst.

        Only called when every queued flit is single-hop (see
        ``_nonburst_queued``).  The pick order is exactly what repeated
        ``_pick_vc`` calls would produce: strict round-robin over the
        occupied VCs starting from ``_rr`` (no credit gating applies to
        last-hop flits), per-VC FIFO order preserved.

        ``pin_first`` (enqueue_packets' idle-port path) forces the first
        pick to that VC's head — the pick per-flit arbitration made when
        the message's first packet arrived at the idle port — with
        round-robin continuing from the next VC, which puts the pinned VC
        last in the snapshot.
        """
        queues = self.queues
        n = len(queues)
        rr = self._rr if pin_first is None else (pin_first + 1) % n
        vcs: list[int] = []
        run_slots: list[int] = []
        snapshot: list = []
        for offset in range(n):
            vc = (rr + offset) % n
            queue = queues[vc]
            if queue:
                run_slots += [len(vcs)] * len(queue)
                vcs.append(vc)
                snapshot += queue
                queue.clear()
        if not snapshot:
            return
        run_ctxs, run_flits, run_tails = zip(*snapshot)
        run_flits = np.array(run_flits)
        run_end = np.cumsum(run_flits)
        sizes = np.full(run_end[-1], self._flit_bytes)
        sizes[run_end - 1] = run_tails

        # Pick order: round r takes flit r of every VC that has one.  A
        # rounds x VCs grid masked by each VC's flit count, ravelled in
        # row order, is that sequence; ``heads`` index the VC-major flats.
        lengths = np.bincount(run_slots, weights=run_flits).astype(np.int64)
        heads = np.cumsum(lengths) - lengths
        if pin_first is not None:
            first = heads[-1]
            lengths[-1] -= 1
            heads[-1] += 1
        rounds, slots = np.nonzero(np.arange(lengths.max())[:, None] < lengths)
        picks = heads[slots] + rounds
        if pin_first is not None:
            picks = np.concatenate(([first], picks))
        runs = np.repeat(np.arange(len(run_flits)), run_flits)[picks]
        sizes = sizes[picks]

        link = self.link
        config = link.config
        if config is not self._bpc_config:
            self._bytes_per_cycle = config.effective_bytes_per_cycle(link.clock)
            self._bpc_config = config
        # ``end = start + ser`` chained by cumsum, and ``arrival = start +
        # (ser + latency)``: the per-flit path's schedule() expressions.
        sers = np.maximum(sizes, 1.0) / self._bytes_per_cycle
        bounds = np.empty(len(sers) + 1)
        bounds[0] = self.events.now
        bounds[1:] = sers
        bounds = np.cumsum(bounds)
        starts = bounds[:-1]
        arrivals = starts + (sers + config.latency_cycles)

        # Each message (one context per send) gets one delivery, at its
        # last flit's arrival; arrivals rise with the pick, so deliveries
        # are scheduled in time order.
        ids = np.fromiter(map(id, run_ctxs), dtype=np.uint64, count=len(run_ctxs))
        _ids, owner_run, run_owners = np.unique(ids, return_index=True,
                                                return_inverse=True)
        owners = run_owners[runs]
        last_pick = np.zeros(len(owner_run), dtype=np.int64)
        np.maximum.at(last_pick, owners, np.arange(len(runs)))
        counts = np.bincount(owners).tolist()
        last_arrival = arrivals[last_pick].tolist()
        schedule_at = self.events.schedule_at
        deliveries = []
        for owner in np.argsort(last_pick).tolist():
            ctx = run_ctxs[owner_run[owner]]
            handle = schedule_at(last_arrival[owner],
                                 partial(self._deliver, ctx, counts[owner]))
            deliveries.append((owner, ctx, int(last_pick[owner]), handle))

        self._sending = True
        self._burst = _Burst(
            vcs=vcs, run_ctxs=run_ctxs, run_tails=run_tails,
            run_slots=run_slots, run_flits=run_flits, run_owners=run_owners,
            runs=runs, sizes=sizes, sers=sers, starts=starts,
            ends=bounds[1:], arrivals=arrivals, deliveries=deliveries,
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
        last_vc = burst.vcs[burst.run_slots[burst.runs[cut - 1]]]
        self._rr = (last_vc + 1) % len(self.queues)

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
        if cut >= len(burst.runs):
            # Everything already transmitted; the pending end event doubles
            # as the resume point.
            return
        burst.end_handle.cancel()
        schedule_at = self.events.schedule_at
        schedule_at(float(burst.ends[cut - 1]), self._burst_end)

        owners = burst.run_owners[burst.runs[:cut]]
        sent = np.bincount(owners, minlength=len(burst.deliveries)).tolist()
        last_sent = np.full(len(burst.deliveries), -1)
        np.maximum.at(last_sent, owners, np.arange(cut))
        for owner, ctx, last, handle in burst.deliveries:
            if last < cut:
                continue  # fully committed; delivery time stands as planned
            handle.cancel()
            if sent[owner]:
                # Deliver the transmitted prefix at its own last arrival.
                # With zero propagation latency that can already be in the
                # past (the per-flit path delivered those flits before the
                # interposing event); clamping to now only retimes counter
                # decrements — the message's final, visible delivery always
                # rides the last chunk, whose arrival is in the future.
                at = float(burst.arrivals[last_sent[owner]])
                schedule_at(at if at > now else now,
                            partial(self._deliver, ctx, sent[owner]))

        left = burst.run_flits - np.bincount(burst.runs[:cut],
                                             minlength=len(burst.run_flits))
        queues = self.queues
        for run in np.flatnonzero(left).tolist():
            queues[burst.vcs[burst.run_slots[run]]].append(
                (burst.run_ctxs[run], int(left[run]), burst.run_tails[run]))

    def _burst_end(self) -> None:
        # This dispatch stands in for one per-flit tx-done already credited
        # by _commit_upto; debit it so logical event counts match exactly.
        self.events.credit_batched(-1)
        burst = self._burst
        if burst is not None:
            self._burst = None
            self._commit_upto(burst, len(burst.runs))
        self._sending = False
        self._try_send()

    def _deliver(self, ctx: HopContext, flits: int) -> None:
        # Stands in for one per-flit arrival dispatch (see _burst_end).
        self.events.credit_batched(-1)
        if self.observer is not None:
            self.observer.flits_delivered(ctx.on_delivered, flits)
        ctx.on_delivered(flits)
