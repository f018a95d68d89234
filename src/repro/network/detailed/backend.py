"""The detailed flit-level network backend (the Garnet stand-in).

Implements the same :class:`NetworkBackend` interface as the fast
backend, but moves every message flit by flit through per-link
:class:`TxPort` instances with VC arbitration and credit flow control.
About 20 times the fast backend's CPU time on a 1x8x8 64 KB all-reduce
(2.3 s against 0.11 s, docs/PERFORMANCE.md) — use it to validate timing
on small configurations (see the backend-agreement tests and the
``bench_ablation_backends`` benchmark).
"""

from __future__ import annotations

import numpy as np

from typing import Optional

from repro.config.parameters import NetworkConfig
from repro.errors import NetworkError
from repro.events.engine import EventQueue
from repro.network.api import DeliveryCallback, Drop, NetworkBackend
from repro.network.detailed.router import HopContext, TxPort
from repro.network.link import Link
from repro.network.message import packetize


def _flit_split(packet_bytes: float, flit_bytes: int) -> tuple[int, float]:
    """Flit count and last-flit size of one ``packet_bytes`` packet."""
    count = 1
    remaining = packet_bytes
    while remaining > flit_bytes:
        remaining -= flit_bytes
        count += 1
    return count, float(max(remaining, 0.0))


def packet_flits(size_bytes: float, packet_bytes: int,
                 flit_bytes: int) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a message into per-packet flit counts and tail sizes.

    Granularity follows Table II: the message splits into packets as in
    :func:`packetize`, and packet ``i`` into ``flits[i]`` flits, each
    ``flit_bytes`` wide except the last, which carries ``tails[i]`` bytes
    (a zero-byte packet is one empty flit).  Phits are not modelled
    separately: one flit serializes over a link in
    ``flit_bytes / link_bytes_per_cycle`` cycles, which is exactly the
    phit count times the phit time.
    """
    if flit_bytes <= 0:
        raise NetworkError(f"flit width must be positive: {flit_bytes}")
    sizes = packetize(size_bytes, packet_bytes)
    # Every packet but the last is full-sized: split each size once.
    count, tail = _flit_split(sizes[0], flit_bytes)
    flits = np.full(len(sizes), count)
    tails = np.full(len(sizes), tail)
    if sizes[-1] != sizes[0]:
        flits[-1], tails[-1] = _flit_split(sizes[-1], flit_bytes)
    return flits, tails


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
        flits, tails = packet_flits(size_bytes, packet_bytes,
                                    self.network.flit_width_bytes)
        remaining = int(flits.sum())

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
        self._next_vc = (vc + len(flits)) % self.network.vcs_per_vnet
        ctx = HopContext(path=path, hop=0, upstream=None, on_delivered=delivered,
                         port_for=self._port_for)
        self._port_for(path[0]).enqueue_packets(ctx, vc, flits, tails)
        return None

    @property
    def total_flits_sent(self) -> int:
        return sum(port.flits_sent for port in self._ports.values())
