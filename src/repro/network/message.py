"""Packetization of network-layer messages.

Granularity follows Table II of the paper: the system layer hands the
network *messages* (one per collective step per peer); the network layer
decomposes them into *packets* bounded by the link technology, and the
detailed backend further decomposes packets into flits/phits.

A message is no object: ``NetworkBackend.send`` takes its endpoints,
size and tag as arguments, and its delivery is one record tuple (see
:mod:`repro.network.api`).
"""

from __future__ import annotations

from repro.errors import NetworkError


def packetize(size_bytes: float, packet_size_bytes: int) -> tuple[int, float]:
    """Split a message payload into packets (Table II): the packet count
    and the last packet's payload; every other packet is full.

    The final packet may be short.  A zero-byte message still produces a
    single (header-only) packet so that control messages cost one packet
    of latency.  The detailed backend splits packets into flits the same
    way.

    >>> packetize(1200, 512)
    (3, 176.0)
    """
    if packet_size_bytes <= 0:
        raise NetworkError(f"packet size must be positive: {packet_size_bytes}")
    if size_bytes < 0:
        raise NetworkError(f"size must be >= 0: {size_bytes}")
    full, rem = divmod(size_bytes, packet_size_bytes)
    if rem or not full:
        return int(full) + 1, float(rem)
    return int(full), float(packet_size_bytes)
