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

from repro.errors import NetworkError, TopologyError
from repro.network.channel import RingChannel
from repro.network.link import Link


class MappedRingChannel:
    """A logical unidirectional ring realized over arbitrary physical paths.

    ``hop_paths[i]`` is the ordered physical link path carrying the
    logical hop from ``nodes[i]`` to ``nodes[(i+1) % n]``.  Implements the
    same interface ring algorithms use (``path``, ``link_from`` is
    replaced by ``path`` usage internally, so algorithms built on
    :class:`RingChannel` work unchanged through duck typing except that
    ``link_from`` returns the first physical link of the hop).
    """

    def __init__(
        self,
        nodes: Sequence[int],
        hop_paths: Sequence[Sequence[Link]],
        name: str = "mapped-ring",
    ):
        if len(nodes) < 2:
            raise TopologyError(f"a ring needs >= 2 nodes, got {len(nodes)}")
        if len(set(nodes)) != len(nodes):
            raise TopologyError(f"ring nodes must be unique: {nodes}")
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
        self.nodes = list(nodes)
        self.hop_paths = [list(p) for p in hop_paths]
        self.name = name
        self._index = {node: i for i, node in enumerate(self.nodes)}

    @property
    def size(self) -> int:
        return len(self.nodes)

    def position(self, node: int) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise TopologyError(f"node {node} is not on ring {self.name}") from None

    def next_node(self, node: int) -> int:
        # Inlined position lookup, as on RingChannel.next_node.
        nodes = self.nodes
        try:
            return nodes[(self._index[node] + 1) % len(nodes)]
        except KeyError:
            raise TopologyError(f"node {node} is not on ring {self.name}") from None

    def prev_node(self, node: int) -> int:
        return self.nodes[(self.position(node) - 1) % self.size]

    def node_at_distance(self, node: int, distance: int) -> int:
        return self.nodes[(self.position(node) + distance) % self.size]

    def link_from(self, node: int) -> Link:
        """First physical link of the hop out of ``node``.

        Note: ring algorithms send with an explicit path; this accessor
        exists for interface parity and diagnostics.
        """
        return self.hop_paths[self.position(node)][0]

    def hop_path(self, node: int) -> list[Link]:
        """Full physical path of the logical hop out of ``node``."""
        return self.hop_paths[self.position(node)]

    def path(self, src: int, dst: int) -> list[Link]:
        i, j = self.position(src), self.position(dst)
        if i == j:
            raise NetworkError(f"path src == dst == {src}")
        hops = (j - i) % self.size
        links: list[Link] = []
        for k in range(hops):
            links.extend(self.hop_paths[(i + k) % self.size])
        return links


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
