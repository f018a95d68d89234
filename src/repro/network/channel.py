"""Communication channels: dedicated link structures collectives run over.

A *channel* is a set of physical links that together form one unit of
parallelism the scheduler can dedicate chunks to — one unidirectional
ring, or one global switch (Sec. IV-B: "each LSQ is dedicated to one
uni-directional ring in that phase"; "the number of global switches
determine the number of LSQs for the alltoall dimension").
"""

from __future__ import annotations

import weakref
from typing import Sequence

from repro.network.link import Link
from repro.errors import NetworkError, TopologyError


class HopRing:
    """Node lookups and routes of a unidirectional ring over ``nodes``
    whose hop out of ``nodes[i]`` is one link path to ``nodes[(i + 1) %
    len(nodes)]``: a dedicated link (:class:`RingChannel`) or a routed
    multi-link path (:class:`repro.topology.mapping.MappedRingChannel`).

    A subclass's constructor calls ``HopRing.__init__``, checks its hops,
    then calls :meth:`_set_hops`.
    """

    #: Weak reference to the counter-rotating partner (see
    #: :attr:`reverse_channel`); ``None`` until :func:`pair_reverse_rings`.
    #: The fabric owns both rings of a pair.
    _reverse: "weakref.ref[HopRing] | None" = None

    def __init__(self, nodes: Sequence[int], name: str):
        if len(nodes) < 2:
            raise TopologyError(f"a ring needs >= 2 nodes, got {len(nodes)}")
        if len(set(nodes)) != len(nodes):
            raise TopologyError(f"ring nodes must be unique: {nodes}")
        self.nodes = list(nodes)
        self.name = name

    def _set_hops(self, hop_paths: Sequence[list[Link]]) -> None:
        nodes = self.nodes
        n = len(nodes)
        #: The hop table, ``{node: (position, successor, hop path)}``: a
        #: ring step reads its successor and its route in one lookup, and
        #: ``path(node, successor)`` returns the same list object on every
        #: call, which the fast backend's identity-keyed route memo needs.
        #: It is the ring's only per-node state.  A successor dict next to
        #: a position dict raised search_fig09 peak RSS from 46.05 to
        #: 47.69 MB, and this table stacked on both the position dict and
        #: a neighbour route cache from 45.5 to 48.8 MB: the search holds
        #: all 312 points' systems alive at once, so any duplicated
        #: per-node state is paid once per ring they built (6,696 rings
        #: then; 1,968 since fabrics build only the groups a run touches).
        self.hops = {node: (i, nodes[(i + 1) % n], hop_paths[i])
                     for i, node in enumerate(nodes)}
        #: Multi-hop routes (all-to-all under hardware routing, reroutes
        #: over the reverse ring), built on first use.  Callers treat every
        #: returned path as read-only: the backends and the transport only
        #: iterate it.
        self._path_cache: dict[tuple[int, int], list[Link]] = {}

    @property
    def reverse_channel(self) -> "HopRing | None":
        """A counter-rotating ring over the same nodes, when the fabric
        provides one (see :func:`pair_reverse_rings`).  Ring collectives
        use it to reroute around a permanently dead link."""
        return self._reverse() if self._reverse is not None else None

    @property
    def size(self) -> int:
        return len(self.nodes)

    def _hop(self, node: int) -> tuple[int, int, list[Link]]:
        try:
            return self.hops[node]
        except KeyError:
            raise TopologyError(f"node {node} is not on ring {self.name}") from None

    def position(self, node: int) -> int:
        return self._hop(node)[0]

    def next_node(self, node: int) -> int:
        return self._hop(node)[1]

    def prev_node(self, node: int) -> int:
        return self.nodes[(self.position(node) - 1) % self.size]

    def node_at_distance(self, node: int, distance: int) -> int:
        """The node ``distance`` hops downstream of ``node``."""
        return self.nodes[(self.position(node) + distance) % self.size]

    def hop_path(self, node: int) -> list[Link]:
        """The link path of the hop out of ``node``."""
        return self._hop(node)[2]

    def link_from(self, node: int) -> Link:
        """The first link of the hop out of ``node``."""
        return self._hop(node)[2][0]

    def path(self, src: int, dst: int) -> list[Link]:
        """Consecutive downstream links from ``src`` to ``dst``: the hop
        table's list for a neighbour, a cached concatenation of hops
        otherwise."""
        hop = self.hops.get(src)
        if hop is not None and hop[1] == dst:
            return hop[2]
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        i, j = self.position(src), self.position(dst)
        if i == j:
            raise NetworkError(f"path src == dst == {src}")
        n = self.size
        path = [link for k in range(i, i + (j - i) % n)
                for link in self.hops[self.nodes[k % n]][2]]
        self._path_cache[(src, dst)] = path
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, nodes={self.nodes})"


class RingChannel(HopRing):
    """One unidirectional ring over ``nodes`` with a dedicated link per hop.

    ``nodes`` is the traversal order: node ``nodes[i]`` sends to
    ``nodes[(i + 1) % len(nodes)]`` over ``links[i]``.
    """

    def __init__(self, nodes: Sequence[int], links: Sequence[Link], name: str = "ring"):
        super().__init__(nodes, name)
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
        self.links = list(links)
        self._set_hops([[link] for link in self.links])


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
    # Weak both ways: two strong references would make every pair a
    # reference cycle that only the cyclic collector frees.
    forward._reverse = weakref.ref(backward)
    backward._reverse = weakref.ref(forward)


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

    @property
    def links(self) -> list[Link]:
        """Every uplink, then every downlink."""
        return [*self.uplinks.values(), *self.downlinks.values()]

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
