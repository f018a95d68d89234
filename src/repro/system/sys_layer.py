"""The system layer facade (Fig. 6): collective APIs over the network.

:class:`System` owns the event queue, the network backend, the scheduler
and the statistics, and exposes the collective API the workload layer
programs against: :meth:`request_collective` returns a
:class:`CollectiveSet` whose completion can be awaited via callback.

On a fabric whose NPUs are all translates of each other the system runs
its collectives as a *quotient run*: it simulates NPU 0 alone and counts
every message once per NPU (:meth:`System._quotient_copies`,
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.collectives.context import CollectiveContext
from repro.collectives.types import CollectiveOp, build_phase_plan
from repro.config.parameters import PacketRouting, SimulationConfig
from repro.errors import SimulationError
from repro.events.engine import EventQueue
from repro.network.channel import RingChannel, SwitchChannel
from repro.network.fast_backend import FastBackend
from repro.network.physical.fabric import Ring
from repro.system.collective_set import CollectiveSet, split_into_chunks
from repro.system.scheduler import Scheduler
from repro.system.stats import DelayBreakdown
from repro.dims import Dimension
from repro.topology.logical import LogicalTopology

if TYPE_CHECKING:
    from repro.system.p2p import P2PEngine, P2PTransfer


class System:
    """One simulated training platform: topology + system layer + network."""

    def __init__(
        self,
        topology: LogicalTopology,
        config: SimulationConfig,
        events: Optional[EventQueue] = None,
        trace: bool = False,
        sanitizer=None,
        fault_schedule=None,
        watchdog=None,
        backend_factory=None,
    ):
        self.topology = topology
        self.config = config
        #: Optional repro.sanitize.runtime.RuntimeSanitizer.  When present
        #: the system attaches its event checks to the queue it runs and
        #: builds an instrumented backend, and verifies quiescence
        #: invariants in :meth:`run_until_idle`.
        self.sanitizer = sanitizer
        self._own_events = events is None
        self.events = events if events is not None else EventQueue()
        if sanitizer is not None:
            sanitizer.watch(self.events)
        network = config.network if config.network is not None else topology.fabric.network
        if backend_factory is not None:
            # Harness hook for the non-default backend (the detailed
            # flit-level one), called with the queue the system runs.
            backend = backend_factory(self.events, network, sanitizer)
        else:
            backend = FastBackend(self.events, network, sanitizer=sanitizer)
        #: Reliable transport wrapper, when config.system.transport enables
        #: it (required for surviving fault schedules — docs/FAULTS.md).
        self.transport = None
        if config.system.transport is not None:
            from repro.system.transport import ReliableTransport

            backend = ReliableTransport(backend, config.system.transport)
            self.transport = backend
        self.backend = backend
        #: Live fault state (repro.network.fault_schedule.FaultState) when a
        #: schedule was installed; both backends consult it at injection.
        self.fault_state = None
        if fault_schedule is not None:
            self.fault_state = fault_schedule.install(topology.fabric, self.events)
            self.backend.faults = self.fault_state
        self.scheduler = Scheduler(topology.fabric, config.system, self.events)
        #: trace=True retains finished chunk executions so the timeline
        #: tooling (repro.analysis.trace) can reconstruct phase spans.
        self.scheduler.keep_completed = trace
        self.sets: list[CollectiveSet] = []
        # Per-system set numbering: set ids appear in labels, traces and
        # error messages, so they must depend on this run alone — not on
        # how many systems the process (or a pool worker) built before.
        self._set_ids = itertools.count()
        self._p2p: Optional[P2PEngine] = None
        #: NPUs each simulated NPU stands for: chosen at the first
        #: collective request (see :meth:`_quotient_copies`).
        self._copies: Optional[int] = None
        #: repro.resilience.watchdog.Watchdog when a WatchdogConfig was
        #: supplied.  It watches the queue: it observes before each event
        #: and never schedules one, so attaching it cannot change the
        #: simulated trajectory.
        self.watchdog = None
        if watchdog is not None:
            from repro.resilience.watchdog import Watchdog

            self.watchdog = Watchdog(self, watchdog)
            self.events.watch(self.watchdog.note_event)

    # -- time ----------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.events.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """The event queue, exposed upward to the workload layer (Sec. IV)."""
        self.events.schedule(delay, callback)

    # -- collective API ---------------------------------------------------------------

    def request_collective(
        self,
        op: CollectiveOp,
        size_bytes: float,
        scope: Optional[Sequence[Dimension]] = None,
        layer_id: Optional[int] = None,
        name: str = "",
        reduction_cycles_per_kb: Optional[float] = None,
    ) -> CollectiveSet:
        """Issue one collective set; it is chunked, queued and dispatched
        by the scheduler, pipelining with everything already in flight."""
        sys_cfg = self.config.system
        if reduction_cycles_per_kb is None:
            reduction_cycles_per_kb = sys_cfg.reduction_cycles_per_kb

        if op is CollectiveOp.NONE:
            plan = []
        else:
            dims = self.topology.dim_sizes(scope)
            plan = build_phase_plan(op, dims, sys_cfg.algorithm)

        if self._copies is None:
            self._copies = self._quotient_copies()
        chunk_sizes = split_into_chunks(size_bytes, sys_cfg.preferred_set_splits)
        collective = CollectiveSet(
            op=op,
            total_bytes=float(size_bytes),
            plan=plan,
            chunk_sizes=chunk_sizes,
            scope=tuple(scope) if scope is not None else None,
            layer_id=layer_id,
            name=name,
            reduction_cycles_per_kb=reduction_cycles_per_kb,
            set_id=next(self._set_ids),
        )
        ctx = CollectiveContext(
            self.backend,
            endpoint_delay_cycles=sys_cfg.endpoint_delay_cycles,
            reduction_cycles_per_kb=reduction_cycles_per_kb,
            packet_routing=sys_cfg.packet_routing,
            injection_policy=sys_cfg.injection_policy,
            breakdown=collective.breakdown,
            copies=self._copies,
            set_id=collective.set_id,
        )
        self.sets.append(collective)
        self.scheduler.enqueue_set(collective, ctx)
        return collective

    def request_p2p(self, src: int, dst: int, size_bytes: float,
                    name: str = "") -> P2PTransfer:
        """Issue a chunked point-to-point transfer (pipeline-parallel
        activations etc.), routed over the fabric's minimum-latency path.

        A point-to-point message breaks the symmetry a quotient run relies
        on, so on a system whose collectives chose the quotient run this
        raises :class:`SimulationError`; point-to-point traffic requested
        before the first collective keeps the system on the full run."""
        if self._copies is not None and self._copies > 1:
            raise SimulationError(
                "point-to-point transfer on a system whose collectives "
                "run as a quotient run (NPU 0 simulated for every NPU); "
                "request point-to-point transfers before the first collective")
        if self._p2p is None:
            from repro.network.routing import FabricRouter
            from repro.system.p2p import P2PEngine

            self._p2p = P2PEngine(
                self.backend,
                FabricRouter(self.topology.fabric),
                preferred_splits=min(4, self.config.system.preferred_set_splits),
            )
        return self._p2p.send(src, dst, size_bytes, name=name)

    def _quotient_copies(self) -> int:
        """How many NPUs each simulated NPU stands for: the NPU count when
        every NPU runs the same event sequence up to translation, 1 (the
        full run) otherwise.

        Every block must be a ring or a global switch whose links still
        hold their block's link config and carry no traffic yet, so every
        NPU's neighbourhood is a translate of NPU 0's.  Only the groups
        the fabric has built are checked: an unbuilt group has no links
        yet, so nothing has touched it.  A ring block's
        channels must be plain :class:`RingChannel` objects (a mapped
        ring routes over links other rings share).  A switch block's
        uplinks and downlinks are per NPU, and a direct exchange sends
        its messages in one translation-invariant order
        (:mod:`repro.collectives.direct_algorithms`), so NPU 0's messages
        into one fixed peer's downlink stand for every NPU's.  Software
        routing keeps every ring message on one link (a multi-hop
        reservation orders messages of different NPUs by event sequence
        on a shared link).  Anything that observes or perturbs individual
        messages keeps the full run: another backend or the reliable
        transport, a fault schedule, the sanitizer, the watchdog,
        tracing, a caller's event queue (the schedule-perturbation
        detector's) and point-to-point traffic.
        """
        fabric = self.topology.fabric
        backend = self.backend
        if (type(backend) is not FastBackend or backend.faults is not None
                or self.sanitizer is not None or self.watchdog is not None or self.scheduler.keep_completed
                or not self._own_events or self._p2p is not None
                or self.config.system.packet_routing is not PacketRouting.SOFTWARE):
            return 1
        for block in fabric.blocks:
            channel_type = RingChannel if isinstance(block, Ring) else SwitchChannel
            for channels in fabric.built_groups(block.dim).values():
                for channel in channels:
                    if type(channel) is not channel_type:
                        return 1
                    for link in channel.links:
                        if link.config is not block.link or link.next_free:
                            return 1
        return fabric.num_npus

    @property
    def breakdown(self) -> DelayBreakdown:
        """The run's Fig. 12b breakdown: every set's breakdown merged.

        Each message is recorded once, on its set; this per-run view is
        built on read.  The merge is exact, so it does not depend on the
        order sets were requested or finished in.
        """
        merged = DelayBreakdown()
        for collective in self.sets:
            merged.merge_from(collective.breakdown)
        return merged

    # -- running -------------------------------------------------------------------------

    def run_until_idle(self, max_events: Optional[int] = None) -> float:
        """Drain the event queue; returns the final simulated time.

        Raises on a drain deadlock (queue empty with collectives still
        outstanding), including a wait-for summary of what never finished;
        with a sanitizer attached, also verifies the runtime conservation
        and barrier invariants at quiescence.
        """
        self.events.run(max_events=max_events)
        if not self.scheduler.idle:
            raise SimulationError(
                f"event queue drained with {self.scheduler.in_flight_count} chunks "
                f"in flight and {self.scheduler.ready_count} ready (deadlock?)\n"
                + self.wait_for_summary()
            )
        if self.sanitizer is not None:
            self.sanitizer.verify_quiescent(self)
        return self.events.now

    def transport_stats(self):
        """The :class:`repro.system.transport.TransportStats` of this run,
        with the backend's drop counter folded in; ``None`` without a
        reliable transport."""
        if self.transport is None:
            return None
        return self.transport.snapshot_stats()

    def progress_vector(self) -> tuple:
        """A tuple that changes iff the simulation made *real* progress.

        Sampled by the stall watchdog (:mod:`repro.resilience.watchdog`):
        deliveries, issued sets, chunk and set completions all count;
        retransmissions, drops and backoff timers deliberately do not — a
        retry storm against a dead path must read as "no progress".
        """
        return (
            self.backend.messages_delivered,
            self.backend.bytes_delivered,
            len(self.sets),
            sum(c.chunks_done for c in self.sets),
            sum(1 for c in self.sets if c.done),
        )

    def diagnostics(self) -> dict:
        """JSON-serializable snapshot of where the simulation stands.

        The payload of watchdog diagnostic bundles; everything a post-
        mortem needs without the process that hung.
        """
        per_chunk = [
            {
                "label": execution.label,
                "min_phase": execution.current_min_phase + 1,
                "phases": len(execution.plan),
                "nodes_per_phase": list(execution._nodes_in_phase[:-1]),
            }
            for execution in self.scheduler.in_flight.values()
        ]
        transport = self.transport_stats()
        return {
            "time": self.events.now,
            "events_processed": self.events.events_processed,
            "pending_events": self.events.pending,
            "heap_size": self.events.heap_size,
            "progress_vector": list(self.progress_vector()),
            "chunks_ready": self.scheduler.ready_count,
            "chunks_in_flight": per_chunk,
            "sets": [
                {"set_id": s.set_id, "name": s.name, "op": s.op.value,
                 "chunks_done": s.chunks_done, "num_chunks": s.num_chunks}
                for s in self.sets if not s.done
            ],
            "faults": (self.fault_state.snapshot()
                       if self.fault_state is not None else None),
            "transport": transport.as_dict() if transport is not None else None,
        }

    def wait_for_summary(self) -> str:
        """What the simulation is still waiting on — the deadlock report.

        Lists every unfinished collective set with its chunk progress, and
        every in-flight chunk execution with the phase its slowest nodes
        are stuck in (the wait-for relation a drain deadlock needs).
        """
        lines = [
            f"wait-for summary at t={self.events.now:,.0f}: "
            f"{self.scheduler.ready_count} chunks ready, "
            f"{self.scheduler.in_flight_count} in flight"
        ]
        for collective in self.sets:
            if collective.done:
                continue
            lines.append(
                f"  set {collective.set_id} ({collective.name or collective.op.value}): "
                f"{collective.chunks_done}/{collective.num_chunks} chunks done"
            )
        for execution in self.scheduler.in_flight.values():
            phases = len(execution.plan)
            lines.append(
                f"  chunk {execution.label}: waiting in phase "
                f"{execution.current_min_phase + 1}/{phases}, "
                f"nodes per phase {execution._nodes_in_phase[:-1]}"
            )
        return "\n".join(lines)
