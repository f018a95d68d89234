"""Unidirectional link model used by the fast backend.

Every physical link is a FIFO-served resource: messages are granted the
link in arrival order, occupy it for their serialization time, and incur
the link's propagation latency on top.  This captures the two quantities
the paper's results hinge on — per-link serialization (size / BW·eff)
and queuing delay under contention — without simulating individual flits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.config.parameters import LinkConfig
from repro.config.units import Clock, DEFAULT_CLOCK
from repro.errors import NetworkError

_link_ids = itertools.count()


@dataclass
class LinkStats:
    """Accumulated per-link counters (utilization reporting)."""

    messages: int = 0
    bytes: float = 0.0
    busy_cycles: float = 0.0
    queue_cycles: float = 0.0


class Link:
    """A unidirectional link from ``src`` to ``dst`` endpoints.

    Endpoints are opaque integers: NPU ids, or switch ids allocated by the
    fabric builder.  ``kind`` is "local" (intra-package) or "package"
    (inter-package) and is only used for reporting.
    """

    __slots__ = ("link_id", "src", "dst", "config", "kind", "clock",
                 "next_free", "stats", "_ser_config", "_bytes_per_cycle",
                 "_memos", "_memo_config", "_memo")

    def __init__(
        self,
        src: int,
        dst: int,
        config: LinkConfig,
        kind: str = "package",
        clock: Clock = DEFAULT_CLOCK,
        memos: dict | None = None,
    ):
        if src == dst:
            raise NetworkError(f"link endpoints must differ, got {src}->{dst}")
        self.link_id = next(_link_ids)
        self.src = src
        self.dst = dst
        self.config = config
        self.kind = kind
        self.clock = clock
        #: Earliest time the link can accept the next message.
        self.next_free = 0.0
        self.stats = LinkStats()
        # Bandwidth memo, keyed on config object identity: fault injection
        # replaces ``config`` wholesale (repro.network.faults.degrade_link),
        # which invalidates the memo on the next call.
        self._ser_config: LinkConfig | None = None
        self._bytes_per_cycle = 0.0
        # Serialization memo for reserve(): config -> {size: (serialization,
        # head serialization)}.  A run pushes a few chunk sizes through a
        # link thousands of times, and the LIFO scheduler interleaves sets
        # of different chunk sizes on the same link, so a one-slot memo
        # would miss often.  The results depend only on the config's values
        # and the clock, so a fabric passes one ``memos`` dict to all of its
        # links (one clock), which then share one memo per link class
        # instead of holding one each.  ``_memo`` is the entry for the
        # config object ``_memo_config``; a new config (degrade_link)
        # switches entries on the next reserve.
        self._memos: dict[LinkConfig, dict[float, tuple[float, float]]] = (
            {} if memos is None else memos)
        self._memo_config = config
        self._memo = self._memos.setdefault(config, {})

    def serialization_cycles(self, size_bytes: float) -> float:
        """Cycles to push ``size_bytes`` through this link (memoized BW).

        Same result as ``config.serialization_cycles(size_bytes, clock)``
        — this is the per-reserve hot path, so the effective bytes/cycle
        figure is cached instead of being rederived per message.
        """
        if size_bytes < 0:
            raise NetworkError(f"message size must be >= 0: {size_bytes}")
        config = self.config
        if config is not self._ser_config:
            self._bytes_per_cycle = config.effective_bytes_per_cycle(self.clock)
            self._ser_config = config
        wire = size_bytes / self._bytes_per_cycle
        quantum = config.message_quantum_bytes
        if quantum is None or size_bytes == 0:
            return wire
        return wire + -(-size_bytes // quantum) * config.quantum_overhead_cycles

    def reserve(self, at: float, size_bytes: float) -> tuple[float, float, float]:
        """Reserve the link for one message arriving at time ``at``.

        Returns ``(start, head_arrival, tail_arrival)`` where ``start`` is
        when serialization begins (after FIFO wait), ``head_arrival`` is
        when the first packet reaches the far end (enables pipelined
        multi-hop forwarding), and ``tail_arrival`` is full delivery.
        """
        if size_bytes < 0:
            raise NetworkError(f"size must be >= 0: {size_bytes}")
        config = self.config
        if config is not self._memo_config:
            self._memo_config = config
            self._memo = self._memos.setdefault(config, {})
        memo = self._memo.get(size_bytes)
        if memo is None:
            first_packet = min(size_bytes, float(config.packet_size_bytes))
            memo = self._memo[size_bytes] = (self.serialization_cycles(size_bytes),
                                             self.serialization_cycles(first_packet))
        ser, head_ser = memo
        latency = config.latency_cycles
        start = max(at, self.next_free)
        head_arrival = start + head_ser + latency
        tail_arrival = start + ser + latency
        self.next_free = start + ser

        stats = self.stats
        stats.messages += 1
        stats.bytes += size_bytes
        # det: allow[float-accumulation] one port = one time-ordered stream
        stats.busy_cycles += ser
        stats.queue_cycles += start - at  # det: allow[float-accumulation] as above
        return start, head_arrival, tail_arrival

    def reset(self) -> None:
        self.next_free = 0.0
        self.stats = LinkStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link#{self.link_id}({self.src}->{self.dst}, {self.kind})"
