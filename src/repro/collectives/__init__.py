"""Topology-aware collective communication algorithms (Sec. III-B/III-D).

The package root names only :class:`~repro.collectives.types.CollectiveOp`,
which every command parses; the algorithms are imported from their
modules by the runs that use them.
"""

from repro.collectives.types import CollectiveOp

__all__ = ["CollectiveOp"]
