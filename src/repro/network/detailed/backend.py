"""The detailed flit-level network backend (the Garnet stand-in).

Implements the same :class:`NetworkBackend` interface as the fast
backend, but moves every message flit by flit through per-link
:class:`TxPort` instances with VC arbitration and credit flow control.
A 1x8x8 64 KB all-reduce takes about 1 s of CPU time on a 2-vCPU Linux
guest (1.4 s with numpy burst plans, 3.1 s before flit bursts were
planned from the packet structure), where the fast backend's quotient
run takes about 9 ms (docs/PERFORMANCE.md) — use it to validate timing on small
configurations (see the backend-agreement tests and the
``bench_ablation_backends`` benchmark).
"""

from __future__ import annotations

from typing import Optional

from repro.config.parameters import NetworkConfig
from repro.errors import NetworkError
from repro.events.engine import EventQueue
from repro.network.api import DeliveryCallback, Drop, NetworkBackend
from repro.network.detailed.router import HopContext, TxPort
from repro.network.link import Link
from repro.network.message import packetize


def packet_flits(size_bytes: float, packet_bytes: int,
                 flit_bytes: int) -> tuple[int, int, float, int, float]:
    """Decompose a message into packets and flits, in closed form.

    Granularity follows Table II: the message splits into ``count``
    packets as in :func:`packetize`, and a packet into flits the same way,
    each ``flit_bytes`` wide except the last (a zero-byte packet is one
    empty flit).  Every packet but the last is full, so the result is
    ``(count, flits, tail, last_flits, last_tail)``: a full packet's flit
    count and last-flit bytes, then the last packet's.  Phits are not
    modelled separately: one flit serializes over a link in
    ``flit_bytes / link_bytes_per_cycle`` cycles, which is exactly the
    phit count times the phit time.
    """
    if flit_bytes <= 0:
        raise NetworkError(f"flit width must be positive: {flit_bytes}")
    count, last = packetize(size_bytes, packet_bytes)
    return (count, *packetize(packet_bytes, flit_bytes),
            *packetize(last, flit_bytes))


class DetailedBackend(NetworkBackend):
    """Flit/credit/VC-level backend over the same physical links."""

    def __init__(self, events: EventQueue, network: NetworkConfig, sanitizer=None):
        # _ports must exist before super().__init__: the base class assigns
        # ``self.faults = None``, which runs the property setter below.
        self._ports: dict[int, TxPort] = {}
        self._faults = None
        super().__init__(events, sanitizer=sanitizer)
        self.network = network
        # Packets take VCs round-robin per backend: a process-global
        # counter would rotate VC choices with every packet sent anywhere
        # in the process, breaking run-to-run determinism.
        self._next_vc = 0
        #: :func:`packet_flits` per (message bytes, packet bytes): a run
        #: sends a few message sizes thousands of times.
        self._plans: dict[tuple[float, int], tuple[int, int, float, int, float]] = {}

    @property
    def faults(self):
        return self._faults

    @faults.setter
    def faults(self, value) -> None:
        # Burst plans precompute transmission times; a fault-driven link
        # retiming (degrade_link swaps link.config mid-run) would leave a
        # stale plan in flight.  With live faults every port falls back to
        # the per-flit path, which reads the config per transmission.
        self._faults = value
        for port in self._ports.values():
            port.burst_enabled = value is None

    def _port_for(self, link: Link) -> TxPort:
        port = self._ports.get(link.link_id)
        if port is None:
            port = TxPort(link, self.network, self.events)
            if self._faults is not None:
                port.burst_enabled = False
            if self.sanitizer is not None:
                port.observer = self.sanitizer.conservation
                self.sanitizer.conservation.register_port(port)
            self._ports[link.link_id] = port
        return port

    def send(self, src: int, dst: int, size_bytes: float, path: list[Link],
             tag: object, on_delivered: DeliveryCallback) -> Optional[Drop]:
        self._validate_route(src, dst, path)
        conservation = None if self.sanitizer is None else self.sanitizer.conservation
        if conservation is not None:
            conservation.message_sent()
        created_at = self.now
        # Drop before any flit is counted so the flit ledgers stay balanced.
        drop = self._drop_if_faulty(src, dst, path)
        if drop is not None:
            return drop

        packet_bytes = min(link.config.packet_size_bytes for link in path)
        packets = self._plans.get((size_bytes, packet_bytes))
        if packets is None:
            packets = self._plans[size_bytes, packet_bytes] = packet_flits(
                size_bytes, packet_bytes, self.network.flit_width_bytes)
        count, flits, _tail, last_flits, _last_tail = packets
        remaining = (count - 1) * flits + last_flits

        def delivered(count: int) -> None:
            nonlocal remaining
            remaining -= count
            if remaining == 0:
                # Approximate injection time as creation (flit-level queues
                # make per-message injection a fuzzy notion); queueing shows
                # up in network cycles instead.
                self.messages_delivered += 1
                self.bytes_delivered += size_bytes
                if conservation is not None:
                    conservation.message_delivered()
                record = (on_delivered, src, dst, size_bytes, tag,
                          created_at, created_at)
                on_delivered(record)

        # The delivery sink is this send's own object: the sanitizer's
        # flit ledger keys on it, and the ports that sink the flits credit
        # it (TxPort.observer).
        if conservation is not None:
            conservation.flits_created(delivered, remaining,
                                       f"{src}->{dst} tag={tag!r}")
        vc = self._next_vc
        self._next_vc = (vc + count) % self.network.vcs_per_vnet
        ctx = HopContext(path=path, hop=0, upstream=None, on_delivered=delivered,
                         port_for=self._port_for)
        self._port_for(path[0]).enqueue_packets(ctx, vc, packets)
        return None

    @property
    def total_flits_sent(self) -> int:
        return sum(port.flits_sent for port in self._ports.values())
