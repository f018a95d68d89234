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

from repro.config.parameters import NetworkConfig
from repro.events.engine import EventQueue
from repro.network.api import DeliveryCallback, NetworkBackend, validate_path
from repro.network.link import Link
from repro.network.message import Message


class FastBackend(NetworkBackend):
    """Analytical link-level backend (the default)."""

    def __init__(self, events: EventQueue, network: NetworkConfig, sanitizer=None):
        super().__init__(events, sanitizer=sanitizer)
        self.network = network
        #: delivered_at -> [(message, on_delivered), ...] in send order.
        #: All same-cycle deliveries drain through ONE event dispatch (see
        #: send); ring/alltoall steps deliver N messages at the same cycle,
        #: so this coalesces the dominant event population of a collective.
        self._delivery_batches: dict[float, list] = {}
        #: id(path) -> the validated path object (strong ref, so the id
        #: stays valid) plus its endpoints.  Routes come from the topology
        #: layer's per-channel route caches (PR 5), a small fixed set of
        #: list objects reused for every send — so after the first send per
        #: route, validation is one dict hit.  A path revalidates when the
        #: message endpoints differ (same list object reused for another
        #: pair would be a route-table bug validate_path must catch).
        self._validated_routes: dict[int, tuple] = {}

    def send(self, message: Message, path: list[Link], on_delivered: DeliveryCallback) -> None:
        cached = self._validated_routes.get(id(path))
        if (cached is None or cached[0] is not path
                or cached[1] != message.src or cached[2] != message.dst):
            validate_path(message, path)
            self._validated_routes[id(path)] = (path, message.src, message.dst)
        # _record_send inlined: no call on the unsanitized path, and with a
        # sanitizer every send still reaches its conservation ledger.
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.conservation.message_sent(message)
        now = self.events.now
        message.created_at = now
        if self.faults is not None and self._drop_if_faulty(message, path):
            return

        # Reserve each hop in order; hop k may begin once the head of the
        # message has arrived at its input (packet-pipelined forwarding).
        # Loop-invariant lookups are hoisted: this method runs once per
        # message and dominates the fast backend's per-send cost.
        router_latency = self.network.router_latency_cycles
        size_bytes = message.size_bytes
        arrival = now
        injected = None
        # validate_path guarantees a non-empty path, but keep last_tail
        # bound regardless so a degenerate path can never surface as an
        # UnboundLocalError two statements later.
        last_tail = now
        for hop, link in enumerate(path):
            if hop > 0:
                arrival += router_latency
            start, head, tail = link.reserve(arrival, size_bytes)
            if injected is None:
                injected = start
            # The next hop can start serializing when the first packet has
            # fully arrived, but it also cannot finish before this hop's
            # tail has arrived; Link.reserve's FIFO ordering handles the
            # rest because per-hop serialization time only shrinks or stays
            # equal downstream when bandwidths match.
            arrival = head
            last_tail = tail

        message.injected_at = injected if injected is not None else now
        delivered_at = max(last_tail, arrival)
        message.delivered_at = delivered_at

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
            batch.append((message, on_delivered))
        else:
            batches[delivered_at] = [(message, on_delivered)]
            self.events.schedule_at(delivered_at, self._drain_deliveries)

    def _drain_deliveries(self) -> None:
        # Pop before iterating: an on_delivered handler that sends again
        # with zero network latency lands in a fresh batch whose drain
        # event fires later in the same cycle's pass, exactly as the
        # unbatched design ordered it.
        batch = self._delivery_batches.pop(self.events.now)
        if len(batch) > 1:
            self.events.credit_batched(len(batch) - 1)
        # _record_delivery inlined, as _record_send in send().
        sanitizer = self.sanitizer
        for message, on_delivered in batch:
            self.messages_delivered += 1
            self.bytes_delivered += message.size_bytes
            if sanitizer is not None:
                sanitizer.conservation.message_delivered(message)
            on_delivered(message)
