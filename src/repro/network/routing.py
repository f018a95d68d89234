"""Point-to-point routing over a fabric's link graph.

Collectives route along their dedicated channels, but point-to-point
transfers (pipeline-parallel activations, parameter fetches) need a path
between arbitrary endpoints.  :class:`FabricRouter` builds a directed
graph of every physical link — NPUs and switch endpoints alike — and
returns minimum-latency link paths, preferring higher-bandwidth links on
ties.
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.network.link import Link
from repro.network.physical.fabric import Fabric


class FabricRouter:
    """Shortest-path router over all physical links of a fabric."""

    def __init__(self, fabric: Fabric):
        # Imported here, not at module scope: it is slow to import and only
        # point-to-point routing and auto-mapping need it.
        import networkx as nx

        self.fabric = fabric
        self.graph = nx.DiGraph()
        for link in fabric.links:
            # Weight: per-hop latency plus a small bandwidth-derived tie
            # breaker so faster links win among equal-latency paths.
            weight = link.config.latency_cycles + 1.0 / link.config.bandwidth_gbps
            existing = self.graph.get_edge_data(link.src, link.dst)
            if existing is None or weight < existing["weight"]:
                self.graph.add_edge(link.src, link.dst, weight=weight, link=link)
        self._cache: dict[tuple[int, int], list[Link]] = {}

    def path(self, src: int, dst: int) -> list[Link]:
        """The minimum-latency link path from ``src`` to ``dst``."""
        if src == dst:
            raise NetworkError(f"path src == dst == {src}")
        cached = self._cache.get((src, dst))
        if cached is not None:
            return cached
        import networkx as nx

        try:
            nodes = nx.shortest_path(self.graph, src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise NetworkError(f"no route from {src} to {dst}") from None
        # get_edge_data, not graph.edges[a, b]: the edges view is cached
        # on the graph and points back at it, a reference cycle that would
        # keep the graph and every Link for the cyclic collector.
        get_edge_data = self.graph.get_edge_data
        links = [get_edge_data(a, b)["link"] for a, b in zip(nodes, nodes[1:])]
        self._cache[(src, dst)] = links
        return links

    def hop_count(self, src: int, dst: int) -> int:
        return len(self.path(src, dst))

    def reachable(self, src: int, dst: int) -> bool:
        try:
            self.path(src, dst)
            return True
        except NetworkError:
            return False
