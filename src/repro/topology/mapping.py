"""Logical-to-physical topology mapping (Sec. IV-B).

The system layer's logical topology can differ from the physical one:
"map a single logical topology on different physical topologies and
compare the results (e.g. mapping a 3D logical topology on a 1D or 2D
physical torus)".  :class:`MappedRingChannel` realizes this: a logical
ring whose per-hop "links" are multi-link physical paths, so a logical
neighbour send may traverse several physical links (sharing them with
other logical rings and paying the extra serialization and queuing).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import TopologyError
from repro.network.channel import HopRing, RingChannel
from repro.network.link import Link


class MappedRingChannel(HopRing):
    """A logical unidirectional ring realized over arbitrary physical paths.

    ``hop_paths[i]`` is the ordered physical link path carrying the
    logical hop from ``nodes[i]`` to ``nodes[(i+1) % n]``.  It has the
    ring interface the ring algorithms use (:class:`HopRing`);
    ``link_from`` returns the first physical link of a hop and
    ``hop_path`` the whole of it.
    """

    def __init__(
        self,
        nodes: Sequence[int],
        hop_paths: Sequence[Sequence[Link]],
        name: str = "mapped-ring",
    ):
        super().__init__(nodes, name)
        if len(hop_paths) != len(nodes):
            raise TopologyError(
                f"need {len(nodes)} hop paths, got {len(hop_paths)}"
            )
        for i, path in enumerate(hop_paths):
            if not path:
                raise TopologyError(f"hop {i} has an empty physical path")
            src, dst = nodes[i], nodes[(i + 1) % len(nodes)]
            if path[0].src != src or path[-1].dst != dst:
                raise TopologyError(
                    f"hop {i} path runs {path[0].src}->{path[-1].dst}, "
                    f"expected {src}->{dst}"
                )
            for a, b in zip(path, path[1:]):
                if a.dst != b.src:
                    raise TopologyError(f"discontinuous hop {i}: {a!r} then {b!r}")
        self.hop_paths = [list(p) for p in hop_paths]
        self._set_hops(self.hop_paths)


def map_ring_over_ring(
    logical_nodes: Sequence[int],
    physical_ring: RingChannel,
    name: str = "remapped",
) -> MappedRingChannel:
    """Map a logical ring onto a physical ring's links.

    ``logical_nodes`` must be a subset (or reordering) of the physical
    ring's nodes; each logical hop becomes the downstream physical path
    between consecutive logical nodes.  This is the paper's "map a 3D
    logical topology on a 1D physical torus" building block: call it once
    per logical dimension with the same physical ring.
    """
    n = len(logical_nodes)
    hop_paths = [
        physical_ring.path(logical_nodes[i], logical_nodes[(i + 1) % n])
        for i in range(n)
    ]
    return MappedRingChannel(logical_nodes, hop_paths, name=name)
