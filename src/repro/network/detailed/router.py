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
``max(size, 1) / bytes_per_cycle`` cycles back to back.  A plan computes
only what events read: each pick's size and serialization time in pick
order, their ``cumsum`` (the flit boundaries), each message's last
arrival and the burst end.  ``cumsum`` adds strictly in order and every
other float is the per-flit path's own expression, so each float equals
the per-flit path's.  One burst-end event plus one delivery event per
message replace two events per flit; as flits commit, the link's byte
and busy-cycle totals are added in pick order.

A message reaching an idle port is planned from its packet structure
(:meth:`TxPort._plan_packets`): packet ``i`` is on slot ``i % n`` and
every packet but the last is the same, so each round picks one flit size
on every slot but the last packet's, a few ``np.repeat`` runs.  Queued
runs are planned by :meth:`TxPort._plan`, whose pick order is a rounds ×
VCs grid, masked and ravelled.

Any interposed enqueue splits the burst (:meth:`TxPort._split_burst`):
the already-transmitted prefix is committed, and arbitration resumes —
including the new packets — when the in-flight flit completes, exactly
when the per-flit path would have re-arbitrated.  Only a split reads the
per-pick order and the packet runs, which a message's plan builds then.
The unsent runs stay arrays, held with whatever is enqueued before the
resume, which merges them VC-major, FIFO within each VC (or hands them
to the VC queues if the per-flit path must run).  Multi-hop traffic, and
any run with live fault injection (which can retime links mid-flight),
takes the per-flit path.

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
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

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


@dataclass(slots=True)
class _Burst:
    """An in-flight transmission plan for one :class:`TxPort`.

    Slot ``s`` is VC ``(base + s) % vcs``; round-robin starts at slot 0.
    Pick ``i``, the ``i``-th flit transmitted, is ``rows[0, i + 1]`` bytes,
    serializes for ``ser = rows[1, i + 1]`` cycles from ``bounds[i]`` (the
    ``cumsum`` of ``rows[1]``, which starts with the burst's start) and
    arrives at ``bounds[i] + (ser + latency)``.  The last pick is on slot
    ``last_slot``.  ``deliveries`` holds ``(owner, last pick, handle)`` per
    message ``owners[owner]``, in scheduling order.

    Only a split reads the rest.  ``runs`` are ``(run_owners, run_slots,
    run_flits, run_tails)`` in VC-major FIFO order: ``run_flits[r]`` flits,
    the last one ``run_tails[r]`` bytes, of message ``run_owners[r]`` on
    slot ``run_slots[r]``, and pick ``i`` is a flit of run ``pick_runs[i]``;
    a burst planned from one message's ``packets`` builds both on first
    use.
    """

    base: int
    owners: list
    rows: np.ndarray
    bounds: np.ndarray
    latency: float
    last_slot: int
    deliveries: list
    end_handle: EventHandle
    packets: Optional[tuple] = None
    runs: Optional[tuple] = None
    pick_runs: Optional[np.ndarray] = None


def _pick_order(runs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Each pick's VC-major flat and run (see :class:`_Burst`).

    Round ``r`` takes flit ``r`` of every slot that has one: a rounds x
    slots grid masked by each slot's flit count, ravelled in row order.
    """
    _owners, run_slots, run_flits, _tails = runs
    lengths = np.bincount(run_slots, weights=run_flits).astype(np.int64)
    rounds, slots = np.nonzero(np.arange(lengths.max())[:, None] < lengths)
    picks = (lengths.cumsum() - lengths)[slots] + rounds
    return picks, np.arange(len(run_flits)).repeat(run_flits)[picks]


def _last_picks(pick_owners: np.ndarray, owners: int) -> tuple[np.ndarray, np.ndarray]:
    """Each owner's last pick (-1 if none) and number of picks, given the
    owner of each pick."""
    last = np.full(owners, -1)
    np.maximum.at(last, pick_owners, np.arange(len(pick_owners)))
    return last, np.bincount(pick_owners, minlength=owners)


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
        #: From a split to its resume, the queued runs as blocks ``(owners,
        #: run_owners, vcs, flits, tails)``, oldest first, each FIFO per VC:
        #: the split's unsent runs, then messages queued since.  The VC
        #: queues are empty while it is a list.
        self._held: Optional[list] = None
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
            # already have transmitted, hold the rest, re-plan when the
            # in-flight flit completes.
            self._split_burst()
        if self._held is not None:
            self._spill()
        self.queues[vc].append((ctx, flits, tail))
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
        n = len(self.queues)
        for i in range(count - 1):
            self.enqueue((first_vc + i) % n, ctx, flits, tail)
        self.enqueue((first_vc + count - 1) % n, ctx, last_flits, last_tail)

    def queued_flits(self) -> int:
        """Flits waiting in this port's VC queues and held runs (burst plans
        hold none: a split holds only its unsent runs, so at quiescence
        this is exactly the stuck-flit count)."""
        held = sum(int(block[3].sum()) for block in self._held or ())
        return held + sum(flits for queue in self.queues
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

    def _packet_runs(self, ctx: HopContext, first_vc: int, packets: tuple) -> tuple:
        """One message's packets as a block of runs (see ``_held``)."""
        count, flits, tail, last_flits, last_tail = packets
        run_flits = np.full(count, flits)
        run_flits[-1] = last_flits
        run_tails = np.full(count, tail)
        run_tails[-1] = last_tail
        vcs = np.arange(first_vc, first_vc + count) % len(self.queues)
        return [ctx], np.zeros(count, dtype=np.intp), vcs, run_flits, run_tails

    def _queued_runs(self) -> list:
        """The VC queues' runs as one block (none if they are empty)."""
        runs = [(vc, *run) for vc, queue in enumerate(self.queues) for run in queue]
        if not runs:
            return []
        for queue in self.queues:
            queue.clear()
        vcs, ctxs, flits, tails = zip(*runs)
        # One owner per message, named by its per-send delivery sink.
        number: dict = {}
        owners = [number.setdefault(ctx.on_delivered, (len(number), ctx))[0]
                  for ctx in ctxs]
        return [([ctx for _i, ctx in number.values()],
                 *map(np.array, (owners, vcs, flits, tails)))]

    def _spill(self) -> None:
        """Put the held runs back in the VC queues, for the per-flit path."""
        for owners, run_owners, vcs, flits, tails in self._held:
            for owner, vc, count, tail in zip(run_owners.tolist(), vcs.tolist(),
                                              flits.tolist(), tails.tolist()):
                self.queues[vc].append((owners[owner], count, tail))
        self._held = None

    def _merge(self, blocks: list, base: int) -> tuple:
        """Blocks of runs, oldest first, as their owners and one run list
        (see :class:`_Burst`) in VC-major order from VC ``base``: a stable
        sort on the slot keeps every VC's runs in arrival order."""
        owners, shifted = [], []
        for block in blocks:
            shifted.append(block[1] + len(owners))
            owners += block[0]
        run_owners = np.concatenate(shifted)
        vcs, flits, tails = (np.concatenate(column)
                             for column in list(zip(*blocks))[2:])
        slots = (vcs - base) % len(self.queues)
        order = slots.argsort(kind="stable")
        return owners, (run_owners[order], slots[order], flits[order], tails[order])

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
        width = min(count, len(self.queues))
        last = (count - 1) % width  # the last packet's slot
        full = (count - 1) // width  # packet rounds on every slot
        # Flit codes: 0 a body flit, 1 a full packet's tail, 2 the last
        # one's.  In the last packet's rounds, slots 0..last pick body flits
        # until its tail, then slots before it finish their full packets.
        codes = [0, 1] * full + [0, 1 if last_flits == flits else 0, 2]
        counts = ([1] + [(flits - 1) * width, width] * full
                  + [(last + 1) * (last_flits - 1), last, 1])
        if last_flits < flits:
            codes += [0, 1]
            counts += [last * (flits - 1 - last_flits), last]
        pick = itemgetter(*codes)
        sizes = (self._flit_bytes, tail, last_tail)
        rate = self._rate()
        rows = np.array([(0.0, *pick(sizes)),
                         (self.events.now,
                          *pick([max(size, 1.0) / rate for size in sizes]))])
        total = (count - 1) * flits + last_flits
        # The last pick is on the last slot with the most flits.
        self._launch(first_vc, [ctx], rows.repeat(counts, axis=1),
                     [(0, total - 1, total)],
                     last if last_flits == flits or last == 0 else last - 1,
                     packets=packets)

    def _plan(self, base: int, owners: list, runs: tuple) -> None:
        """Plan the drain of VC-major packet runs (see :class:`_Burst`) as
        one burst."""
        run_owners, run_slots, run_flits, run_tails = runs
        picks, pick_runs = _pick_order(runs)
        total = len(picks)
        flats = np.full(total, self._flit_bytes)
        flats[run_flits.cumsum() - 1] = run_tails
        rows = np.empty((2, total + 1))
        rows[:, 0] = 0.0, self.events.now
        rows[0, 1:] = flats[picks]
        rows[1, 1:] = np.maximum(rows[0, 1:], 1.0) / self._rate()
        last, counts = _last_picks(run_owners[pick_runs], len(owners))
        by_last = last.argsort()
        self._launch(base, owners, rows,
                     zip(by_last.tolist(), last[by_last].tolist(),
                         counts[by_last].tolist()),
                     int(run_slots[pick_runs[-1]]), runs=runs, pick_runs=pick_runs)

    def _launch(self, base: int, owners: list, rows: np.ndarray, lasts,
                last_slot: int, **lazy) -> None:
        """Schedule a planned burst (``rows`` as in :class:`_Burst`);
        ``lasts`` holds ``(owner, last pick, flits)`` per message in
        last-pick order."""
        bounds = rows[1].cumsum()
        sers = rows[1, 1:]
        latency = self.link.config.latency_cycles
        schedule_at = self.events.schedule_at
        deliveries = []
        # Arrivals rise with the pick, so deliveries go in time order.
        for owner, last, flits in lasts:
            # The per-flit path's ``start + (ser + latency)``.
            at = float(bounds[last]) + (float(sers[last]) + latency)
            handle = schedule_at(at, partial(self._deliver, owners[owner], flits))
            deliveries.append((owner, last, handle))
        self._sending = True
        self._burst = _Burst(base, owners, rows, bounds, latency,
                             last_slot, deliveries,
                             schedule_at(float(bounds[-1]), self._burst_end),
                             **lazy)

    def _commit(self, burst: _Burst, cut: int) -> None:
        """Apply transmit effects for picks ``[0, cut)``, once per burst:
        when it ends, or when a split stops it.

        Mirrors the per-flit path's effects in pick order: link stats
        accumulation (same floats, same order), flit counter, and the
        round-robin pointer advancing past the last transmitted VC.
        Credits two logical events per flit — the tx-done and arrival
        dispatches the per-flit path would have run.
        """
        self.flits_sent += cut
        self.events.credit_batched(2 * cut)
        stats = self.link.stats
        # The leading column (the burst's start, already in ``bounds``)
        # takes the running totals; the cumsum adds the picks in order.
        rows = burst.rows[:, :cut + 1]
        rows[:, 0] = stats.bytes, stats.busy_cycles
        stats.bytes, stats.busy_cycles = rows.cumsum(axis=1)[:, -1].tolist()
        slot = (burst.last_slot if cut == len(burst.bounds) - 1
                else int(burst.runs[1][burst.pick_runs[cut - 1]]))
        self._rr = (burst.base + slot + 1) % len(self.queues)

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
        total = len(burst.bounds) - 1
        cut = int(np.searchsorted(burst.bounds[:-1], now, side="right"))
        if cut >= total:
            # Everything already transmitted; the pending end event doubles
            # as the resume point.
            self._commit(burst, total)
            return
        if burst.runs is None:
            block = self._packet_runs(burst.owners[0], burst.base, burst.packets)
            burst.runs = self._merge([block], burst.base)[1]
            burst.pick_runs = _pick_order(burst.runs)[1]
        pick_runs = burst.pick_runs
        run_owners, run_slots, run_flits, run_tails = burst.runs
        self._commit(burst, cut)
        burst.end_handle.cancel()
        schedule_at = self.events.schedule_at
        schedule_at(float(burst.bounds[cut]), self._burst_end)

        last_sent, owner_sent = _last_picks(run_owners[pick_runs[:cut]],
                                            len(burst.owners))
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
                pick = int(last_sent[owner])
                at = float(burst.bounds[pick]) + (float(burst.rows[1, pick + 1])
                                                  + burst.latency)
                schedule_at(at if at > now else now,
                            partial(self._deliver, burst.owners[owner],
                                    int(owner_sent[owner])))

        # The unsent runs, a partly sent one keeping its tail, numbered
        # over the messages they belong to.
        remaining = np.bincount(pick_runs[cut:], minlength=len(run_flits))
        left = np.flatnonzero(remaining)
        used, owners_left = np.unique(run_owners[left], return_inverse=True)
        self._held.append(([burst.owners[i] for i in used.tolist()], owners_left,
                           (burst.base + run_slots[left]) % len(self.queues),
                           remaining[left], run_tails[left]))

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
            self._commit(burst, len(burst.bounds) - 1)
            return
        self._try_send()

    def _deliver(self, ctx: HopContext, flits: int) -> None:
        # Stands in for one per-flit arrival dispatch (see _burst_end).
        self.events.credit_batched(-1)
        if self.observer is not None:
            self.observer.flits_delivered(ctx.on_delivered, flits)
        ctx.on_delivered(flits)
