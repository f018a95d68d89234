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
from repro.network.api import NetworkBackend
from repro.network.link import Link
from repro.network.message import Message

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
    """

    messages: int = 0
    queue_values: list[float] = field(default_factory=list, repr=False)
    network_values: list[float] = field(default_factory=list, repr=False)
    byte_values: list[float] = field(default_factory=list, repr=False)

    def record(self, message: Message) -> None:
        """Add one delivered message's samples.

        The queueing and network cycles are the differences
        ``Message.queueing_cycles`` and ``network_cycles`` compute, taken
        from the timing fields directly: this runs once per message.
        """
        self.messages += 1
        injected = message.injected_at
        self.queue_values.append(injected - message.created_at)
        self.network_values.append(message.delivered_at - injected)
        self.byte_values.append(message.size_bytes)
        if len(self.queue_values) >= COMPACT_AT:
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

    @property
    def queue_cycles(self) -> float:
        return math.fsum(self.queue_values)

    @property
    def network_cycles(self) -> float:
        return math.fsum(self.network_values)

    @property
    def bytes(self) -> float:
        return math.fsum(self.byte_values)

    @property
    def mean_queue_cycles(self) -> float:
        return self.queue_cycles / self.messages if self.messages else 0.0

    @property
    def mean_network_cycles(self) -> float:
        return self.network_cycles / self.messages if self.messages else 0.0

    def merge_from(self, other: "PhaseStats") -> None:
        """Fold another phase's samples in (order-invariant: the merged
        lists hold the exact sum of both)."""
        self.messages += other.messages
        self.queue_values.extend(other.queue_values)
        self.network_values.extend(other.network_values)
        self.byte_values.extend(other.byte_values)
        if len(self.queue_values) >= COMPACT_AT:
            self.compact()

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
    """

    def __init__(
        self,
        backend: NetworkBackend,
        endpoint_delay_cycles: float = 10.0,
        reduction_cycles_per_kb: float = 1.0,
        packet_routing: PacketRouting = PacketRouting.SOFTWARE,
        injection_policy: InjectionPolicy = InjectionPolicy.NORMAL,
        breakdown: Optional[DelayBreakdown] = None,
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
        #: Whether the backend reports delivery failures (the reliable
        #: transport); algorithms build ``on_failed`` callbacks only then.
        self.reliable: bool = getattr(backend, "supports_failure_callback", False)
        #: ``after(delay, callback)``: the event queue's own ``schedule``,
        #: bound once, so a state machine's timer costs no wrapper calls.
        self.after: Callable[[float, Callable[[], None]], object] = backend.events.schedule
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
        return self.breakdown.phase(phase_index)

    def send(
        self,
        src: int,
        dst: int,
        size_bytes: float,
        path: list[Link],
        tag: object,
        on_delivered: Callable[[Message], None],
        on_failed: Optional[Callable] = None,
    ) -> Message:
        """Inject one message; ``on_delivered(message)`` runs at arrival.

        The delivery handler records the message's timing: algorithm
        instances record into their phase's :class:`PhaseStats`.
        ``on_failed`` receives a :class:`repro.system.transport.TransportFailure`
        when the reliable transport exhausts its retry budget; it is only
        honored when the backend supports failure reporting (a raw backend
        never reports loss — an undeliverable message simply deadlocks the
        run, surfaced by the wait-for summary).
        """
        message = Message(src, dst, size_bytes, tag)
        if on_failed is not None and self.reliable:
            self._send(message, path, on_delivered, on_failed=on_failed)
        else:
            self._send(message, path, on_delivered)
        return message
