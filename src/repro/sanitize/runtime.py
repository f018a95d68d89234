"""Runtime invariant checkers for the event/network/collective stack.

One :class:`RuntimeSanitizer` instance follows a simulation run and
verifies the invariants the layers' composition depends on:

* **event engine** — :class:`SanitizedEventQueue` refuses time-travel
  (an event firing before the current time) and zero-delay livelock
  (an unbounded run of events at one timestamp);
* **network backends** — :class:`ConservationChecker` balances message
  sends against deliveries (fast backend) and flit/credit ledgers per
  message and per port/VC (detailed backend): a flit that never reaches
  its destination or a credit that is never returned is a leak;
* **collectives** — :class:`BarrierChecker` tracks every registered
  :class:`~repro.events.engine.CountdownBarrier`: over-arrival raises at
  the offending call, under-arrival is reported at quiescence;
* **system layer** — :meth:`RuntimeSanitizer.verify_quiescent` runs after
  the queue drains and raises :class:`~repro.errors.SanitizerError` with
  every outstanding imbalance; the system layer adds a wait-for summary
  when the queue drains with collectives still outstanding.

Everything here is opt-in: without ``--sanitize`` no checker object
exists and the default simulation path is byte-for-byte unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import SanitizerError
from repro.events.engine import EventQueue
from repro.sanitize.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.engine import CountdownBarrier
    from repro.network.detailed.flit import Flit
    from repro.network.detailed.router import HopContext, TxPort
    from repro.network.message import Message


@dataclass
class SanitizerConfig:
    """Knobs for the runtime checkers."""

    #: Maximum consecutive events executed at one timestamp before the
    #: run is declared a zero-delay livelock.
    livelock_threshold: int = 1_000_000
    #: Track per-message / per-port conservation ledgers.
    check_conservation: bool = True
    #: Track registered countdown barriers.
    check_barriers: bool = True

    def __post_init__(self) -> None:
        if self.livelock_threshold < 1:
            raise SanitizerError(
                f"livelock_threshold must be >= 1, got {self.livelock_threshold}"
            )


class SanitizedEventQueue(EventQueue):
    """An :class:`EventQueue` with time-travel and livelock detection.

    The base queue already rejects scheduling into the past; this variant
    additionally validates the heap discipline at *execution* time (a
    popped event must not fire before ``now`` — catches corrupted state
    that bypassed ``schedule_at``) and bounds how many events may execute
    at a single timestamp (zero-delay reschedule loops never advance time
    and would otherwise spin until ``max_events``).
    """

    def __init__(self, sanitizer: "RuntimeSanitizer"):
        super().__init__()
        self.sanitizer = sanitizer
        self._same_time_run = 0

    def step(self) -> bool:
        # Cancelled heads are drained through the shared _pop_live()
        # primitive so the pending/compaction bookkeeping cannot drift
        # from the base queue's drain paths.
        event = self._pop_live()
        if event is None:
            return False
        if event.time < self._now:
            raise SanitizerError(
                f"time-travel: event scheduled for t={event.time} fired "
                f"at t={self._now} (seq={event.seq}); the event heap is "
                f"corrupted"
            )
        if event.time == self._now:
            self._same_time_run += 1
            if self._same_time_run > self.sanitizer.config.livelock_threshold:
                raise SanitizerError(
                    f"zero-delay livelock: more than "
                    f"{self.sanitizer.config.livelock_threshold} events "
                    f"executed at t={self._now} without time advancing"
                )
        else:
            self._same_time_run = 0
        self._now = event.time
        self._events_processed += 1
        event.fired = True
        event.callback()
        if self.watcher is not None:
            self.watcher(self)
        return True


@dataclass
class _MessageLedger:
    """Per-message flit balance for the detailed backend."""

    label: str
    created: int = 0
    delivered: int = 0


class ConservationChecker:
    """Flit, credit and message conservation ledgers.

    Fast backend: every ``send`` must produce exactly one delivery.
    Detailed backend: every flit built for a message must arrive at the
    destination, and every credit taken from a port/VC must be released
    back — at quiescence all ledgers balance and all port queues drain.
    """

    def __init__(self) -> None:
        #: messages sent/delivered/dropped (both backends).  Drops are
        #: deliberate fault-layer losses; conservation balances as
        #: ``sent == delivered + dropped``.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: id(message) -> flit ledger; balanced entries are dropped eagerly
        #: so the ledger only holds in-flight messages.
        self._flit_ledgers: dict[int, _MessageLedger] = {}
        #: (link_id, vc) -> credits currently held downstream.
        self._credits_out: dict[tuple[int, int], int] = {}
        #: ports observed, for queue-drain checks at quiescence.
        self._ports: dict[int, "TxPort"] = {}

    # -- fast-backend message balance ------------------------------------------

    def message_sent(self, message: "Message") -> None:
        self.messages_sent += 1

    def message_delivered(self, message: "Message") -> None:
        self.messages_delivered += 1

    def message_dropped(self, message: "Message") -> None:
        self.messages_dropped += 1

    # -- detailed-backend flit balance -----------------------------------------

    def flits_created(self, message: "Message", count: int) -> None:
        ledger = self._ledger(message)
        ledger.created += count

    def flit_delivered(self, message: "Message") -> None:
        self.flits_delivered(message, 1)

    def flits_delivered(self, message: "Message", count: int) -> None:
        """Bulk delivery credit: one ledger update for ``count`` flits.

        Burst delivery batches (PR 10) land a whole message chunk in one
        dispatch; per-flit ledger calls there would undo the batching's
        point.  Identical accounting to ``count`` single calls.
        """
        ledger = self._ledger(message)
        ledger.delivered += count
        if ledger.delivered > ledger.created:
            raise SanitizerError(
                f"flit conservation: message {ledger.label} delivered "
                f"{ledger.delivered} flits but only {ledger.created} were "
                f"created (duplicated flit)"
            )
        if ledger.delivered == ledger.created:
            del self._flit_ledgers[id(message)]

    def _ledger(self, message: "Message") -> _MessageLedger:
        key = id(message)
        ledger = self._flit_ledgers.get(key)
        if ledger is None:
            ledger = _MessageLedger(
                label=f"{message.src}->{message.dst} tag={message.tag!r}"
            )
            self._flit_ledgers[key] = ledger
        return ledger

    # -- TxPort observer interface ---------------------------------------------

    def register_port(self, port: "TxPort") -> None:
        self._ports[port.link.link_id] = port

    def on_flit_enqueued(self, port: "TxPort", flit: "Flit",
                         ctx: "HopContext") -> None:
        pass  # queue population is re-derived at quiescence

    def on_flit_transmit(self, port: "TxPort", flit: "Flit",
                         ctx: "HopContext", credit_taken: bool) -> None:
        if credit_taken:
            key = (port.link.link_id, ctx.vc)
            self._credits_out[key] = self._credits_out.get(key, 0) + 1

    def on_credit_released(self, port: "TxPort", vc: int) -> None:
        key = (port.link.link_id, vc)
        outstanding = self._credits_out.get(key, 0) - 1
        if outstanding < 0:
            raise SanitizerError(
                f"credit conservation: {port.link!r} vc={vc} released a "
                f"credit that was never taken"
            )
        if outstanding == 0:
            self._credits_out.pop(key, None)
        else:
            self._credits_out[key] = outstanding

    # -- quiescence -------------------------------------------------------------

    def quiescence_findings(self) -> list[Finding]:
        findings: list[Finding] = []
        if self.messages_sent != self.messages_delivered + self.messages_dropped:
            findings.append(Finding(
                Severity.ERROR, "message-leak", "network",
                f"{self.messages_sent} messages sent but "
                f"{self.messages_delivered} delivered and "
                f"{self.messages_dropped} dropped by faults",
                source="runtime",
            ))
        for ledger in self._flit_ledgers.values():
            findings.append(Finding(
                Severity.ERROR, "flit-leak", "network.detailed",
                f"message {ledger.label} leaked "
                f"{ledger.created - ledger.delivered} of {ledger.created} "
                f"flits (never delivered)",
                source="runtime",
            ))
        for (link_id, vc), outstanding in sorted(self._credits_out.items()):
            findings.append(Finding(
                Severity.ERROR, "credit-leak", f"network.detailed.link{link_id}",
                f"vc={vc} holds {outstanding} credits that were never "
                f"released back upstream",
                source="runtime",
            ))
        for port in self._ports.values():
            queued = port.queued_flits()
            if queued:
                findings.append(Finding(
                    Severity.ERROR, "stuck-flits",
                    f"network.detailed.link{port.link.link_id}",
                    f"{queued} flits still queued on {port.link!r} after the "
                    f"event queue drained",
                    source="runtime",
                ))
        return findings


class BarrierChecker:
    """Tracks live :class:`CountdownBarrier` instances."""

    def __init__(self) -> None:
        self._live: dict[int, "CountdownBarrier"] = {}
        self.registered = 0
        self.fired_count = 0

    def register(self, barrier: "CountdownBarrier") -> None:
        self.registered += 1
        self._live[id(barrier)] = barrier

    def fired(self, barrier: "CountdownBarrier") -> None:
        self.fired_count += 1
        self._live.pop(id(barrier), None)

    def over_arrival(self, barrier: "CountdownBarrier") -> None:
        raise SanitizerError(
            f"barrier over-arrival: {barrier.name or 'anonymous barrier'} "
            f"expected {barrier.count} arrivals but received an extra one "
            f"after firing"
        )

    def quiescence_findings(self) -> list[Finding]:
        findings: list[Finding] = []
        for barrier in self._live.values():
            findings.append(Finding(
                Severity.ERROR, "barrier-under-arrival", "events.barrier",
                f"barrier {barrier.name or 'anonymous'} still waits for "
                f"{barrier.remaining} of {barrier.count} arrivals at "
                f"quiescence",
                source="runtime",
            ))
        return findings


class RuntimeSanitizer:
    """Aggregates the pluggable runtime checkers for one simulation run.

    Construct one, hand it to :class:`repro.system.sys_layer.System` (or
    build via ``PlatformSpec.build_system(sanitize=True)`` /
    ``astra-repro ... --sanitize``), and every instrumented layer reports
    into it.  Call :meth:`verify_quiescent` once the event queue drains.
    """

    def __init__(self, config: Optional[SanitizerConfig] = None):
        self.config = config if config is not None else SanitizerConfig()
        self.conservation = ConservationChecker()
        self.barriers = BarrierChecker()

    def make_event_queue(self) -> SanitizedEventQueue:
        return SanitizedEventQueue(self)

    def quiescence_findings(self) -> list[Finding]:
        findings: list[Finding] = []
        if self.config.check_conservation:
            findings.extend(self.conservation.quiescence_findings())
        if self.config.check_barriers:
            findings.extend(self.barriers.quiescence_findings())
        return findings

    def event_queue_findings(self, events: EventQueue) -> list[Finding]:
        """The pending-vs-heap invariant: the incrementally maintained live
        count must agree with an O(n) recount.  A drift means a cancellation
        was double-counted or lost (e.g. by a buggy compaction), which would
        silently skew every heap-pressure decision downstream."""
        findings: list[Finding] = []
        live = events.live_count()
        if live != events.pending:
            findings.append(Finding(
                Severity.ERROR, "pending-count-drift", "events.queue",
                f"event queue reports {events.pending} pending events but the "
                f"heap holds {live} live entries "
                f"(heap_size={events.heap_size}, after "
                f"{events.compactions} compaction(s))",
                source="runtime",
            ))
        return findings

    def verify_quiescent(self, system=None) -> None:
        """Raise :class:`SanitizerError` if any ledger is unbalanced.

        Call after the event queue drained; ``system`` (optional) adds a
        wait-for summary for outstanding collectives to the report and has
        its event queue audited for pending-count drift.
        """
        findings = self.quiescence_findings()
        if system is not None:
            findings.extend(self.event_queue_findings(system.events))
        if system is not None and not system.scheduler.idle:
            findings.append(Finding(
                Severity.ERROR, "drain-deadlock", "system.scheduler",
                "event queue drained with outstanding collectives:\n"
                + system.wait_for_summary(),
                source="runtime",
            ))
        if findings:
            raise SanitizerError(
                "runtime sanitizer found {} violation(s):\n{}".format(
                    len(findings), "\n".join(f.format() for f in findings)
                )
            )
