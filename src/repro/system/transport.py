"""Reliable transport: delivery timeouts, retransmission, backoff.

The raw network backends model a lossless fabric: every accepted message
is eventually delivered, so the system layer never needed an end-to-end
acknowledgment story.  Under a fault schedule
(:mod:`repro.network.fault_schedule`) that assumption breaks — a message
injected while its path crosses a down link is silently dropped, and
without recovery the collective deadlocks.

:class:`ReliableTransport` wraps any :class:`~repro.network.api.NetworkBackend`
(duck-typed, so it composes with both the fast and detailed backends and
with the sanitizer's instrumented variants).  Every :meth:`send` arms a
per-message delivery timer sized to the payload
(``timeout_cycles + timeout_per_byte * size_bytes``).  If the timer fires
first, the message is sent again with the same arguments after an
exponential backoff with seeded jitter, up to ``max_retries`` retransmissions; a
message that exhausts its budget fails — to the caller's ``on_failed``
callback when provided (ring collectives use this to reroute or fail
fast), otherwise by raising :class:`~repro.errors.TransportError`.

Everything is deterministic: the backoff jitter comes from one seeded RNG
consumed in timeout order, and the simulation itself is deterministic, so
identical runs produce identical retry timelines and identical
:class:`TransportStats`.  On a healthy network the (generous) default
timeouts never fire before delivery, so wrapping the backend does not
change a single simulated cycle — asserted by
``benchmarks/bench_transport_overhead.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config.parameters import TransportConfig
from repro.errors import TransportError
from repro.events.engine import EventHandle
from repro.network.api import DeliveryCallback, DeliveryRecord, Drop, NetworkBackend
from repro.network.link import Link

FailureCallback = Callable[["TransportFailure"], None]


@dataclass
class TransportStats:
    """Counters surfaced through the stats layer and the CLI."""

    #: Distinct messages accepted from upper layers.
    messages: int = 0
    #: Total injection attempts (first sends + retransmissions).
    sends: int = 0
    #: Delivery timers that fired before the message arrived.
    timeouts: int = 0
    #: Retransmissions issued (== timeouts that had budget left).
    retries: int = 0
    #: Retransmissions after a paused-endpoint drop; waited out with
    #: backoff but *not* charged against the ``max_retries`` budget.
    paused_waits: int = 0
    #: Messages delivered after at least one retransmission.
    recovered: int = 0
    #: Messages that exhausted their retry budget.
    failed: int = 0
    #: Fault-layer drops observed by the wrapped backend (mirror of
    #: ``backend.messages_dropped``, copied in by the owner for reporting).
    drops: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "messages": self.messages, "sends": self.sends,
            "timeouts": self.timeouts, "retries": self.retries,
            "paused_waits": self.paused_waits,
            "recovered": self.recovered, "failed": self.failed,
            "drops": self.drops,
        }

    def summary(self) -> str:
        paused = (f", {self.paused_waits} paused waits"
                  if self.paused_waits else "")
        return (
            f"transport: {self.messages} messages, {self.sends} sends, "
            f"{self.drops} dropped, {self.timeouts} timeouts, "
            f"{self.retries} retries{paused}, {self.recovered} recovered, "
            f"{self.failed} failed"
        )


@dataclass
class TransportFailure:
    """Diagnostic handed to ``on_failed`` when a message gives up."""

    src: int
    dst: int
    tag: object
    path: list[Link]
    attempts: int
    time: float
    #: Why the final attempt was lost ("timeout" when it simply never
    #: arrived; otherwise the fault layer's drop reason).
    reason: str
    #: Endpoint pairs on the path that were down when the budget ran out.
    dead_links: list[tuple[int, int]] = field(default_factory=list)

    def describe(self) -> str:
        dead = (
            ", dead links: " + ", ".join(f"{s}->{d}" for s, d in self.dead_links)
            if self.dead_links else ""
        )
        return (
            f"transport gave up on message {self.src}->{self.dst} "
            f"(tag={self.tag!r}) after "
            f"{self.attempts} attempts at t={self.time:,.0f}; "
            f"last loss: {self.reason}{dead}"
        )


class _Entry:
    """In-flight state for one logical message."""

    __slots__ = ("src", "dst", "size_bytes", "tag", "path", "on_delivered",
                 "on_failed", "attempts", "paused_waits", "done", "timer",
                 "last_drop")

    def __init__(self, src: int, dst: int, size_bytes: float, path: list[Link],
                 tag: object, on_delivered: DeliveryCallback,
                 on_failed: Optional[FailureCallback]):
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.tag = tag
        self.path = path
        self.on_delivered = on_delivered
        self.on_failed = on_failed
        self.attempts = 0
        self.paused_waits = 0
        self.done = False
        self.timer: Optional[EventHandle] = None
        #: The fault layer's ``(kind, reason)`` for the latest attempt,
        #: as the backend's ``send`` returned it; None when not dropped.
        self.last_drop: Optional[Drop] = None


class ReliableTransport:
    """Timeout/retry/backoff wrapper around a network backend.

    Exposes the same surface as :class:`~repro.network.api.NetworkBackend`
    (``send``, ``schedule``, ``now``, counters...) by delegation, so the
    system layer and collectives use it interchangeably; ``send``
    additionally accepts an ``on_failed`` callback (advertised via
    :attr:`supports_failure_callback`).
    """

    #: Upper layers check this before passing ``on_failed`` to ``send``.
    supports_failure_callback = True

    def __init__(self, inner: NetworkBackend, config: Optional[TransportConfig] = None):
        self.inner = inner
        self.config = config if config is not None else TransportConfig()
        self.stats = TransportStats()
        #: Jitter RNG; consumed in timeout order (deterministic).
        self._rng = random.Random(self.config.seed)

    # -- backend surface (delegation) -------------------------------------------

    def __getattr__(self, name: str):
        # Everything not defined here (events, now, sanitizer, network,
        # messages_delivered, total_flits_sent, ...) is the inner backend's.
        return getattr(self.inner, name)

    @property
    def faults(self):
        return self.inner.faults

    @faults.setter
    def faults(self, state) -> None:
        # Installing fault state on the wrapper must reach the backend
        # that actually consults it at injection time.
        self.inner.faults = state

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        return self.inner.schedule(delay, callback)

    # -- sending ----------------------------------------------------------------

    def send(self, src: int, dst: int, size_bytes: float, path: list[Link],
             tag: object, on_delivered: DeliveryCallback,
             on_failed: Optional[FailureCallback] = None) -> Optional[Drop]:
        """Inject one message; retransmit on timeout until delivered or
        the retry budget (``config.max_retries``) is exhausted.  Returns
        the first attempt's drop, like the backend's ``send``."""
        self.stats.messages += 1
        entry = _Entry(src, dst, size_bytes, path, tag, on_delivered, on_failed)
        self._attempt(entry)
        return entry.last_drop

    def _attempt(self, entry: _Entry) -> None:
        entry.attempts += 1
        self.stats.sends += 1
        attempt = entry.attempts
        timeout = (self.config.timeout_cycles
                   + self.config.timeout_per_byte * entry.size_bytes)
        entry.timer = self.inner.schedule(
            timeout, lambda: self._on_timeout(entry, attempt))
        # A retransmission is the same send again: same endpoints, size
        # and tag, so the receiver demultiplexes it identically.
        entry.last_drop = self.inner.send(
            entry.src, entry.dst, entry.size_bytes, entry.path, entry.tag,
            lambda record: self._on_delivery(entry, record))

    def _on_delivery(self, entry: _Entry, record: DeliveryRecord) -> None:
        if entry.done:
            return  # a late duplicate from a superseded attempt
        entry.done = True
        if entry.timer is not None:
            # The timer's callback holds the entry: release it either way.
            entry.timer.cancel()
            entry.timer = None
        if entry.attempts > 1:
            self.stats.recovered += 1
        entry.on_delivered(record)

    def _on_timeout(self, entry: _Entry, attempt: int) -> None:
        if entry.done or attempt != entry.attempts:
            return  # delivered, or this timer belongs to a superseded attempt
        entry.timer = None  # fired: drop the handle, whose callback holds the entry
        self.stats.timeouts += 1
        # An attempt the fault layer dropped because an endpoint is paused
        # is flow control, not path failure: wait it out with backoff
        # without burning the retry budget (the pause may outlast many
        # timeout windows), bounded only by the max_paused_waits valve.
        paused = entry.last_drop is not None and entry.last_drop[0] == "node_paused"
        if paused:
            entry.paused_waits += 1
            self.stats.paused_waits += 1
            if entry.paused_waits > self.config.max_paused_waits:
                self._fail(entry)
                return
        else:
            if entry.attempts - entry.paused_waits > self.config.max_retries:
                self._fail(entry)
                return
            self.stats.retries += 1
        backoff = min(
            self.config.backoff_base_cycles
            * self.config.backoff_factor ** (entry.attempts - 1),
            self.config.backoff_max_cycles,
        )
        backoff *= 1.0 + self.config.jitter * self._rng.random()
        self.inner.schedule(backoff, lambda: self._resend(entry, attempt))

    def _resend(self, entry: _Entry, attempt: int) -> None:
        if entry.done or attempt != entry.attempts:
            return
        self._attempt(entry)

    def _fail(self, entry: _Entry) -> None:
        entry.done = True
        reason = "timeout" if entry.last_drop is None else entry.last_drop[1]
        dead = (self.inner.faults.down_links_on(entry.path)
                if self.inner.faults is not None else [])
        failure = TransportFailure(
            src=entry.src, dst=entry.dst, tag=entry.tag, path=entry.path,
            attempts=entry.attempts,
            time=self.inner.now, reason=reason, dead_links=dead,
        )
        self.stats.failed += 1
        if entry.on_failed is not None:
            entry.on_failed(failure)
        else:
            raise TransportError(failure.describe())

    # -- reporting --------------------------------------------------------------

    def snapshot_stats(self) -> TransportStats:
        """The stats record with the backend's drop counter folded in."""
        self.stats.drops = self.inner.messages_dropped
        return self.stats
