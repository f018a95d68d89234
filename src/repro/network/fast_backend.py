"""Default analytical event-driven network backend.

Models every unidirectional link as a FIFO-served resource and pipelines
multi-hop transfers at packet granularity (virtual cut-through): the
downstream hop may start once the first packet's tail has arrived, not
after the whole message.  Intermediate fabric hops (switches) add the
configured router latency.

This is the Garnet substitution documented in DESIGN.md: it preserves
serialization, propagation, FIFO queuing and pipelining — the quantities
the paper's comparisons depend on — at a tiny fraction of the cost of a
flit-level simulation.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.config.parameters import NetworkConfig
from repro.events.engine import EventQueue
from repro.network.api import DeliveryCallback, DeliveryRecord, Drop, NetworkBackend
from repro.network.link import Link


class FastBackend(NetworkBackend):
    """Analytical link-level backend (the default)."""

    def __init__(self, events: EventQueue, network: NetworkConfig, sanitizer=None):
        super().__init__(events, sanitizer=sanitizer)
        self.network = network

    def send(self, src: int, dst: int, size_bytes: float, path: list[Link],
             tag: object, on_delivered: DeliveryCallback) -> Optional[Drop]:
        self._validate_route(src, dst, path)
        # Counted inline: no call on the unsanitized path, and with a
        # sanitizer every send still reaches its conservation ledger.
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.conservation.message_sent()
        now = self.events.now
        if self.faults is not None:
            drop = self._drop_if_faulty(src, dst, path)
            if drop is not None:
                return drop

        # Reserve each hop in order; hop k may begin once the head of the
        # message has arrived at its input (packet-pipelined forwarding),
        # plus the router latency.  The next hop can start serializing
        # when the first packet has fully arrived, but it also cannot
        # finish before this hop's tail has arrived; Link.reserve's FIFO
        # ordering handles the rest because per-hop serialization time
        # only shrinks or stays equal downstream when bandwidths match.
        # validate_path guarantees a non-empty path; most are one hop.
        injected, arrival, last_tail = path[0].reserve(now, size_bytes)
        if len(path) > 1:
            router_latency = self.network.router_latency_cycles
            for link in path[1:]:
                _start, arrival, last_tail = link.reserve(arrival + router_latency,
                                                          size_bytes)
        record = (on_delivered, src, dst, size_bytes, tag, now, injected)
        delivered_at = last_tail if last_tail > arrival else arrival
        # A handle-less engine entry per delivery: a ring step's N
        # same-cycle deliveries share their time's bucket in the engine.
        self.events.at(delivered_at, partial(self._deliver, record))
        return None

    def _deliver(self, record: DeliveryRecord) -> None:
        self.messages_delivered += 1
        self.bytes_delivered += record[3]
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.conservation.message_delivered()
        record[0](record)
