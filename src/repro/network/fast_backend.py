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

from typing import Optional

from repro.config.parameters import NetworkConfig
from repro.events.engine import EventQueue
from repro.network.api import DeliveryCallback, Drop, NetworkBackend
from repro.network.link import Link


class FastBackend(NetworkBackend):
    """Analytical link-level backend (the default)."""

    def __init__(self, events: EventQueue, network: NetworkConfig, sanitizer=None):
        super().__init__(events, sanitizer=sanitizer)
        self.network = network
        #: delivered_at -> [record, ...] in send order, one delivery record
        #: ``(on_delivered, src, dst, size_bytes, tag, created_at,
        #: injected_at)`` per send.  All same-cycle deliveries drain
        #: through ONE event dispatch (see send); ring/alltoall steps
        #: deliver N messages at the same cycle, so this coalesces the
        #: dominant event population of a collective.
        self._delivery_batches: dict[float, list] = {}

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

        # Same-cycle delivery coalescing: the first message bound for a
        # given cycle schedules the one drain event; later sends append.
        # Within a batch, messages deliver in send order — the same
        # relative order the per-message events produced — and moving all
        # of a cycle's deliveries to the head of that cycle's drain pass
        # is a same-timestamp permutation, which the schedule-perturbation
        # race detector proves the simulation is invariant under
        # (docs/DETERMINISM.md).  The folded dispatches are credited to
        # events_simulated so throughput stays comparable.
        batches = self._delivery_batches
        batch = batches.get(delivered_at)
        if batch is not None:
            batch.append(record)
        else:
            batches[delivered_at] = [record]
            self.events.schedule_at(delivered_at, self._drain_deliveries)
        return None

    def _drain_deliveries(self) -> None:
        # Pop before iterating: an on_delivered handler that sends again
        # with zero network latency lands in a fresh batch whose drain
        # event fires later in the same cycle's pass, exactly as the
        # unbatched design ordered it.
        batch = self._delivery_batches.pop(self.events.now)
        if len(batch) > 1:
            self.events.credit_batched(len(batch) - 1)
        sanitizer = self.sanitizer
        for record in batch:
            self.messages_delivered += 1
            self.bytes_delivered += record[3]
            if sanitizer is not None:
                sanitizer.conservation.message_delivered()
            record[0](record)
