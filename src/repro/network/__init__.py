"""Network layer: links, channels, physical fabrics, and two backends.

Fault injection (:mod:`repro.network.fault_schedule`) and the flit-level
detailed backend (:mod:`repro.network.detailed`) are imported as
submodules by the runs that use them.
"""

from repro.network.api import DeliveryCallback, NetworkBackend, validate_path
from repro.network.channel import (
    Channel,
    RingChannel,
    SwitchChannel,
    pair_reverse_rings,
)
from repro.network.fast_backend import FastBackend
from repro.network.link import Link, LinkStats
from repro.network.message import packetize

__all__ = [
    "Channel",
    "DeliveryCallback",
    "FastBackend",
    "Link",
    "LinkStats",
    "NetworkBackend",
    "RingChannel",
    "SwitchChannel",
    "packetize",
    "pair_reverse_rings",
    "validate_path",
]
