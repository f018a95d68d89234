"""Detailed flit-level network backend (Garnet-like VC/credit model)."""

from repro.network.detailed.backend import DetailedBackend, packet_flits
from repro.network.detailed.router import HopContext, TxPort

__all__ = ["DetailedBackend", "HopContext", "TxPort", "packet_flits"]
