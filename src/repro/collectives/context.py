"""Execution context shared by collective algorithm instances.

Bundles the network backend with the system-layer constants every
algorithm needs (endpoint delay, local-reduction rate, routing mode) and
the owning collective set's delay breakdown, from which each algorithm
instance resolves its phase's :class:`PhaseStats` once to build the
Fig. 12b / Fig. 16 queue-vs-network delay breakdowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.config.parameters import InjectionPolicy, PacketRouting
from repro.errors import CollectiveError
from repro.network.api import DeliveryCallback, DeliveryRecord, Drop, NetworkBackend
from repro.network.link import Link

if TYPE_CHECKING:
    from repro.system.stats import DelayBreakdown


#: Sample-list length at which :class:`PhaseStats` and the system
#: layer's ``DelayBreakdown`` compact their lists (see
#: :meth:`PhaseStats.compact_values`).  Memory per list stays below this
#: no matter how many messages are recorded.
COMPACT_AT = 512


@dataclass
class PhaseStats:
    """Accumulated message timing for one phase index across a run.

    Totals are exact: each list holds floats whose exact (unrounded) sum
    is the exact sum of every recorded sample, and reads reduce it with
    :func:`math.fsum` — the exact sum rounded once, so the totals are
    bit-identical no matter in what order messages were recorded, when
    the lists were compacted or in what order scopes were merged.  An
    incrementally rounded ``+=`` would drift in the last ulp whenever
    delivery order is perturbed (parallel execution, schedule tie
    permutation — see docs/DETERMINISM.md).

    ``copies`` is how many identical messages each recorded one stands
    for: the NPU count in a quotient run (see :class:`CollectiveContext`),
    1 otherwise.  ``messages`` counts every copy, and a total is the
    ``fsum`` of its list repeated ``copies`` times: the exact sum of
    every copy's sample, rounded once, as recording each copy gives.
    """

    messages: int = 0
    queue_values: list[float] = field(default_factory=list, repr=False)
    network_values: list[float] = field(default_factory=list, repr=False)
    byte_values: list[float] = field(default_factory=list, repr=False)
    copies: int = 1

    def record(self, record: DeliveryRecord, delivered_at: float) -> None:
        """Add one delivered message's samples: queueing cycles (first-link
        grant minus creation), network cycles (delivery minus grant) and
        bytes, read from the backend's delivery ``record``.  Runs once per
        message."""
        self.messages += self.copies
        injected = record[6]
        queue_values = self.queue_values
        queue_values.append(injected - record[5])
        self.network_values.append(delivered_at - injected)
        self.byte_values.append(record[3])
        if len(queue_values) >= COMPACT_AT:
            self.compact()

    @staticmethod
    def compact_values(values: list[float]) -> None:
        """Replace ``values`` in place by a few floats with the same exact sum.

        ``s = fsum(values)`` is kept and ``-s`` appended to the rest, whose
        exact sum is then the rounding error of ``s``; repeat until that
        error is zero.  Each step shrinks the remainder below half an ulp
        of ``s``, so a list of finite floats ends as at most ~40 floats
        (typically one or two), determined by the exact sum alone.  A
        non-finite sum (an inf or nan sample) stops at once.
        """
        if not values:
            return
        kept: list[float] = []
        s = math.fsum(values)
        while s != 0.0 and math.isfinite(s):
            kept.append(s)
            values.append(-s)
            s = math.fsum(values)
        # A zero or non-finite sum is kept as the fsum result itself, so a
        # signed zero, inf or nan reads back as it did.
        values[:] = kept or [s]

    def compact(self) -> None:
        for values in (self.queue_values, self.network_values, self.byte_values):
            self.compact_values(values)

    def _total(self, values: list[float]) -> float:
        return math.fsum(values if self.copies == 1 else values * self.copies)

    @property
    def queue_cycles(self) -> float:
        return self._total(self.queue_values)

    @property
    def network_cycles(self) -> float:
        return self._total(self.network_values)

    @property
    def bytes(self) -> float:
        return self._total(self.byte_values)

    @property
    def mean_queue_cycles(self) -> float:
        return self.queue_cycles / self.messages if self.messages else 0.0

    @property
    def mean_network_cycles(self) -> float:
        return self.network_cycles / self.messages if self.messages else 0.0

    def merge_from(self, other: "PhaseStats") -> None:
        """Fold another phase's samples in (order-invariant: the merged
        lists hold the exact sum of both).  Stats of another ``copies``
        are merged with every list expanded to one copy each."""
        if other.copies != self.copies:
            self._expand()
        lists = (self.queue_values, self.network_values, self.byte_values)
        for values, more in zip(lists, (other.queue_values, other.network_values,
                                        other.byte_values)):
            values.extend(more if other.copies == self.copies
                          else more * other.copies)
        self.messages += other.messages
        if len(self.queue_values) >= COMPACT_AT:
            self.compact()

    def _expand(self) -> None:
        """Repeat every list ``copies`` times, then count one copy each."""
        for values in (self.queue_values, self.network_values, self.byte_values):
            values *= self.copies
            self.compact_values(values)
        self.copies = 1

    def as_dict(self) -> dict:
        """JSON-serializable form (run-cache payloads, bench reports)."""
        return {
            "messages": self.messages,
            "queue_cycles": self.queue_cycles,
            "network_cycles": self.network_cycles,
            "bytes": self.bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseStats":
        return cls(
            messages=int(data["messages"]),
            queue_values=[float(data["queue_cycles"])],
            network_values=[float(data["network_cycles"])],
            byte_values=[float(data["bytes"])],
        )


class CollectiveContext:
    """Wiring between collective state machines and the platform.

    ``reduction_cycles_per_kb`` is the layer's "local update time" from the
    workload file (Fig. 8): the average cycles to reduce 1 KB of received
    data.  ``endpoint_delay`` is Table III #13.  ``breakdown`` is the
    owning collective set's :class:`~repro.system.stats.DelayBreakdown`;
    without one (unit tests, examples) nothing is recorded.

    ``copies`` > 1 makes this a *quotient run* context: every NPU of the
    system is a translate of every other, so only NPU 0 is simulated and
    stands for ``copies`` NPUs.  Chunk executions enter only NPU 0, a
    ring step's message to its successor is delivered back to its sender
    as the one it receives from its predecessor, and phase stats count
    each message ``copies`` times.  :class:`repro.system.sys_layer.System`
    chooses it (docs/PERFORMANCE.md, "Quotient run").
    """

    def __init__(
        self,
        backend: NetworkBackend,
        endpoint_delay_cycles: float = 10.0,
        reduction_cycles_per_kb: float = 1.0,
        packet_routing: PacketRouting = PacketRouting.SOFTWARE,
        injection_policy: InjectionPolicy = InjectionPolicy.NORMAL,
        breakdown: Optional[DelayBreakdown] = None,
        copies: int = 1,
    ):
        if endpoint_delay_cycles < 0:
            raise CollectiveError("endpoint delay must be >= 0")
        if reduction_cycles_per_kb < 0:
            raise CollectiveError("reduction rate must be >= 0")
        self.backend = backend
        #: The backend's runtime sanitizer (None unless --sanitize); state
        #: machines hand it to their CountdownBarriers for arrival checking.
        self.sanitizer = backend.sanitizer
        self.endpoint_delay_cycles = endpoint_delay_cycles
        self.reduction_cycles_per_kb = reduction_cycles_per_kb
        self.packet_routing = packet_routing
        self.injection_policy = injection_policy
        self.breakdown = breakdown
        self.copies = copies
        #: Whether the backend reports delivery failures (the reliable
        #: transport); algorithms build ``on_failed`` callbacks only then.
        self.reliable: bool = getattr(backend, "supports_failure_callback", False)
        #: ``after(delay, callback)``: the event queue's own ``after``,
        #: bound once, so a state machine's timer costs no wrapper calls
        #: and same-time timers of one step share a dispatch (a step group).
        self.after: Callable[[float, Callable[[], None]], None] = backend.events.after
        #: The event queue; a delivery handler reads the delivery time as
        #: its ``now``.
        self.events = backend.events
        self._send = backend.send

    @property
    def now(self) -> float:
        return self.backend.now

    def reduction_cycles(self, size_bytes: float) -> float:
        """Local-reduction delay for ``size_bytes`` of received data."""
        return self.reduction_cycles_per_kb * size_bytes / 1024.0

    def phase_stats(self, phase_index: int) -> Optional[PhaseStats]:
        """The stats every message of phase ``phase_index`` records into
        (None without a breakdown); algorithm instances resolve it once."""
        if self.breakdown is None:
            return None
        return self.breakdown.phase(phase_index, self.copies)

    def send(
        self,
        src: int,
        dst: int,
        size_bytes: float,
        path: list[Link],
        tag: object,
        on_delivered: DeliveryCallback,
        on_failed: Optional[Callable] = None,
    ) -> Optional[Drop]:
        """Inject one message; ``on_delivered(record)`` runs at arrival.

        The delivery handler records the message's timing: algorithm
        instances record into their phase's :class:`PhaseStats`.
        ``on_failed`` receives a :class:`repro.system.transport.TransportFailure`
        when the reliable transport exhausts its retry budget; it is only
        honored when the backend supports failure reporting (a raw backend
        never reports loss — an undeliverable message simply deadlocks the
        run, surfaced by the wait-for summary).  Returns the backend's
        drop, if the fault layer dropped the message at injection.
        """
        if on_failed is not None and self.reliable:
            return self._send(src, dst, size_bytes, path, tag, on_delivered,
                              on_failed=on_failed)
        return self._send(src, dst, size_bytes, path, tag, on_delivered)
