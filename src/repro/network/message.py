"""Message and packet records exchanged through the network layer.

Granularity follows Table II of the paper: the system layer hands the
network *messages* (one per collective step per peer); the network layer
decomposes them into *packets* bounded by the link technology, and the
detailed backend further decomposes packets into flits/phits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import NetworkError

_message_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """One network-layer transfer between two endpoints.

    ``src``/``dst`` are NPU ids.  ``tag`` carries collective bookkeeping
    (chunk id, phase, step) so receivers can demultiplex.  Timing fields
    are filled in by the backend as the message progresses and feed the
    queue/network delay breakdowns of Fig. 12b / Fig. 16.

    ``slots=True``: a collective run creates one of these per step per
    peer per chunk, and the backends touch the timing fields on every
    send/delivery — slotted instances are smaller and attribute access
    skips the instance dict.
    """

    src: int
    dst: int
    size_bytes: float
    tag: object = None
    msg_id: int = field(default_factory=_message_ids.__next__)

    # Timing (simulated cycles), filled by the backend.
    created_at: float = 0.0
    injected_at: float = 0.0
    delivered_at: float = 0.0

    # Why the fault layer dropped this message at injection; None when it
    # was (or will be) delivered normally.  ``drop_kind`` is the machine-
    # readable class ("link_down" / "node_paused" / "random_drop") the
    # reliable transport keys its retry accounting on — a paused endpoint
    # is transient flow control, not a path failure.
    drop_reason: str | None = None
    drop_kind: str | None = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise NetworkError(f"message size must be >= 0: {self.size_bytes}")
        if self.src == self.dst:
            raise NetworkError(f"message src == dst == {self.src}")

    @property
    def queueing_cycles(self) -> float:
        """Time spent waiting for the first link (injection queue delay)."""
        return self.injected_at - self.created_at

    @property
    def network_cycles(self) -> float:
        """Time from first-link grant to delivery."""
        return self.delivered_at - self.injected_at

    @property
    def total_cycles(self) -> float:
        return self.delivered_at - self.created_at


def packetize(size_bytes: float, packet_size_bytes: int) -> list[float]:
    """Split a message payload into packet payloads (Table II).

    The final packet may be short.  A zero-byte message still produces a
    single (header-only) packet so that control messages cost one packet
    of latency.

    >>> packetize(1200, 512)
    [512.0, 512.0, 176.0]
    """
    if packet_size_bytes <= 0:
        raise NetworkError(f"packet size must be positive: {packet_size_bytes}")
    if size_bytes < 0:
        raise NetworkError(f"size must be >= 0: {size_bytes}")
    if size_bytes == 0:
        return [0.0]
    full, rem = divmod(size_bytes, packet_size_bytes)
    packets = [float(packet_size_bytes)] * int(full)
    if rem:
        packets.append(float(rem))
    return packets


def num_packets(size_bytes: float, packet_size_bytes: int) -> int:
    """Packet count without materializing the list."""
    if packet_size_bytes <= 0:
        raise NetworkError(f"packet size must be positive: {packet_size_bytes}")
    if size_bytes <= 0:
        return 1
    return int(-(-size_bytes // packet_size_bytes))
