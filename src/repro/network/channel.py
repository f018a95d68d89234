"""Communication channels: dedicated link structures collectives run over.

A *channel* is a set of physical links that together form one unit of
parallelism the scheduler can dedicate chunks to — one unidirectional
ring, or one global switch (Sec. IV-B: "each LSQ is dedicated to one
uni-directional ring in that phase"; "the number of global switches
determine the number of LSQs for the alltoall dimension").
"""

from __future__ import annotations

from typing import Sequence

from repro.network.link import Link
from repro.errors import NetworkError, TopologyError


class RingChannel:
    """One unidirectional ring over ``nodes`` with a dedicated link per hop.

    ``nodes`` is the traversal order: node ``nodes[i]`` sends to
    ``nodes[(i + 1) % len(nodes)]``.
    """

    def __init__(self, nodes: Sequence[int], links: Sequence[Link], name: str = "ring"):
        if len(nodes) < 2:
            raise TopologyError(f"a ring needs >= 2 nodes, got {len(nodes)}")
        if len(set(nodes)) != len(nodes):
            raise TopologyError(f"ring nodes must be unique: {nodes}")
        if len(links) != len(nodes):
            raise TopologyError(
                f"a ring over {len(nodes)} nodes needs {len(nodes)} links, got {len(links)}"
            )
        for i, link in enumerate(links):
            expected_src = nodes[i]
            expected_dst = nodes[(i + 1) % len(nodes)]
            if link.src != expected_src or link.dst != expected_dst:
                raise TopologyError(
                    f"ring link {i} connects {link.src}->{link.dst}, "
                    f"expected {expected_src}->{expected_dst}"
                )
        self.nodes = list(nodes)
        self.links = list(links)
        self.name = name
        self._index = {node: i for i, node in enumerate(self.nodes)}
        #: Per-(src, dst) route cache: ring collectives request the same
        #: handful of paths once per message, and rebuilding the hop list
        #: is pure modular arithmetic over immutable state — cache it.
        #: Callers must treat returned paths as read-only (they do: paths
        #: are only iterated by the backends and the transport).
        self._path_cache: dict[tuple[int, int], list[Link]] = {}
        #: A counter-rotating ring over the same nodes, when the fabric
        #: provides one (see :func:`pair_reverse_rings`).  Ring collectives
        #: use it to reroute around a permanently dead link.
        self.reverse_channel: "RingChannel | None" = None

    @property
    def size(self) -> int:
        return len(self.nodes)

    def position(self, node: int) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise TopologyError(f"node {node} is not on ring {self.name}") from None

    def next_node(self, node: int) -> int:
        # Runs once per ring message: the position lookup is inlined rather
        # than a call to position().  No successor table: every fabric of a
        # search stays alive until the cyclic collector runs, and one table
        # per ring measured more peak RSS than the arithmetic costs in time.
        nodes = self.nodes
        try:
            return nodes[(self._index[node] + 1) % len(nodes)]
        except KeyError:
            raise TopologyError(f"node {node} is not on ring {self.name}") from None

    def prev_node(self, node: int) -> int:
        return self.nodes[(self.position(node) - 1) % self.size]

    def node_at_distance(self, node: int, distance: int) -> int:
        """The node ``distance`` hops downstream of ``node``."""
        return self.nodes[(self.position(node) + distance) % self.size]

    def link_from(self, node: int) -> Link:
        """The dedicated link out of ``node`` along the ring."""
        return self.links[self.position(node)]

    def path(self, src: int, dst: int) -> list[Link]:
        """Consecutive downstream links from ``src`` to ``dst`` (cached)."""
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        i, j = self.position(src), self.position(dst)
        if i == j:
            raise NetworkError(f"path src == dst == {src}")
        hops = (j - i) % self.size
        path = [self.links[(i + k) % self.size] for k in range(hops)]
        self._path_cache[(src, dst)] = path
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingChannel({self.name}, nodes={self.nodes})"


def pair_reverse_rings(forward: RingChannel, backward: RingChannel) -> None:
    """Mark two rings as each other's counter-rotating direction.

    The rings must traverse the same node set in opposite orders; each
    becomes the other's ``reverse_channel`` (the surviving direction a
    collective can reroute over when one direction's link dies).
    """
    n = forward.size
    if set(forward.nodes) != set(backward.nodes):
        raise TopologyError(
            f"cannot pair rings over different node sets: "
            f"{forward.nodes} vs {backward.nodes}"
        )
    start = backward.position(forward.nodes[0])
    expected = [backward.nodes[(start - k) % n] for k in range(n)]
    if expected != forward.nodes:
        raise TopologyError(
            f"rings {forward.name!r} and {backward.name!r} do not "
            f"counter-rotate: {forward.nodes} vs {backward.nodes}"
        )
    forward.reverse_channel = backward
    backward.reverse_channel = forward


class SwitchChannel:
    """One global switch: an uplink and a downlink per attached NPU.

    A message from ``src`` to ``dst`` traverses ``uplink[src]`` then
    ``downlink[dst]`` (pipelined at packet granularity by the backend).
    """

    def __init__(
        self,
        switch_id: int,
        nodes: Sequence[int],
        uplinks: dict[int, Link],
        downlinks: dict[int, Link],
        name: str = "switch",
    ):
        if len(nodes) < 2:
            raise TopologyError(f"a switch needs >= 2 attached nodes, got {len(nodes)}")
        missing_up = [n for n in nodes if n not in uplinks]
        missing_down = [n for n in nodes if n not in downlinks]
        if missing_up or missing_down:
            raise TopologyError(
                f"switch {switch_id} missing uplinks {missing_up} / downlinks {missing_down}"
            )
        for node in nodes:
            up, down = uplinks[node], downlinks[node]
            if up.src != node or up.dst != switch_id:
                raise TopologyError(f"bad uplink for node {node}: {up!r}")
            if down.src != switch_id or down.dst != node:
                raise TopologyError(f"bad downlink for node {node}: {down!r}")
        self.switch_id = switch_id
        self.nodes = list(nodes)
        self.uplinks = dict(uplinks)
        self.downlinks = dict(downlinks)
        self.name = name
        #: Per-(src, dst) route cache; see :class:`RingChannel`.
        self._path_cache: dict[tuple[int, int], list[Link]] = {}

    @property
    def size(self) -> int:
        return len(self.nodes)

    def path(self, src: int, dst: int) -> list[Link]:
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        if src == dst:
            raise NetworkError(f"path src == dst == {src}")
        if src not in self.uplinks:
            raise TopologyError(f"node {src} not attached to switch {self.switch_id}")
        if dst not in self.downlinks:
            raise TopologyError(f"node {dst} not attached to switch {self.switch_id}")
        path = [self.uplinks[src], self.downlinks[dst]]
        self._path_cache[(src, dst)] = path
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SwitchChannel({self.name}, switch={self.switch_id}, nodes={self.nodes})"


Channel = RingChannel | SwitchChannel
