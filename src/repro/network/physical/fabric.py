"""Physical fabric base: links, channels, and endpoint bookkeeping.

A fabric owns every physical link in the system plus the channel
structures (rings, switches) built over them.  Concrete builders live in
``torus.py`` and ``alltoall.py``.
"""

from __future__ import annotations

from typing import Iterable

from repro.config.parameters import LinkConfig, NetworkConfig
from repro.config.units import Clock, DEFAULT_CLOCK
from repro.errors import TopologyError
from repro.network.channel import Channel, RingChannel, SwitchChannel, pair_reverse_rings
from repro.network.link import Link
from repro.dims import Dimension

#: A dimension group key: the coordinates held fixed while traversing the
#: dimension (e.g. for the vertical dimension, (local_idx, horizontal_idx)).
GroupKey = tuple[int, ...]


class Fabric:
    """Base class holding links and per-dimension channel groups."""

    def __init__(self, num_npus: int, network: NetworkConfig, clock: Clock = DEFAULT_CLOCK):
        if num_npus < 1:
            raise TopologyError(f"fabric needs >= 1 NPU, got {num_npus}")
        self.num_npus = num_npus
        self.network = network
        self.clock = clock
        self.links: list[Link] = []
        #: Serialization memos shared by every link of this fabric (see
        #: :class:`Link`): one per link config rather than one per link.
        self._serialization_memos: dict = {}
        #: channels[dim][group_key] -> list of parallel channels for that group
        self.channels: dict[Dimension, dict[GroupKey, list[Channel]]] = {}
        self._next_switch_id = num_npus

    # -- construction helpers -------------------------------------------------

    def _new_link(self, src: int, dst: int, config: LinkConfig, kind: str) -> Link:
        link = Link(src, dst, config, kind=kind, clock=self.clock,
                    memos=self._serialization_memos)
        self.links.append(link)
        return link

    def _alloc_switch_id(self) -> int:
        switch_id = self._next_switch_id
        self._next_switch_id += 1
        return switch_id

    def _build_ring(
        self, nodes: list[int], config: LinkConfig, kind: str, name: str, reverse: bool
    ) -> RingChannel:
        """Create a unidirectional ring channel with dedicated links."""
        order = list(reversed(nodes)) if reverse else list(nodes)
        links = [
            self._new_link(order[i], order[(i + 1) % len(order)], config, kind)
            for i in range(len(order))
        ]
        return RingChannel(order, links, name=name)

    def _build_switch(
        self, nodes: list[int], config: LinkConfig, name: str
    ) -> SwitchChannel:
        """Create a global switch with an uplink/downlink per node."""
        switch_id = self._alloc_switch_id()
        uplinks = {n: self._new_link(n, switch_id, config, "package") for n in nodes}
        downlinks = {n: self._new_link(switch_id, n, config, "package") for n in nodes}
        return SwitchChannel(switch_id, nodes, uplinks, downlinks, name=name)

    def _add_channels(
        self, dim: Dimension, group: GroupKey, channels: Iterable[Channel]
    ) -> None:
        self.channels.setdefault(dim, {}).setdefault(group, []).extend(channels)

    def _pair_ring_directions(self, rings: list[RingChannel]) -> None:
        """Pair consecutive counter-rotating rings as reroute companions.

        All builders emit alternating-direction rings back to back (cw/ccw
        pairs, or ``reverse=bool(r % 2)``), so rings ``2i`` and ``2i+1``
        cover the same nodes in opposite orders.  A trailing unpaired ring
        (odd ring count) keeps ``reverse_channel = None``.
        """
        for i in range(0, len(rings) - 1, 2):
            pair_reverse_rings(rings[i], rings[i + 1])

    # -- queries ---------------------------------------------------------------

    @property
    def dimensions(self) -> list[Dimension]:
        """Dimensions present, in collective traversal order (Sec. III-D)."""
        from repro.dims import TRAVERSAL_ORDER

        return [d for d in TRAVERSAL_ORDER if d in self.channels]

    def groups(self, dim: Dimension) -> dict[GroupKey, list[Channel]]:
        if dim not in self.channels:
            raise TopologyError(f"fabric has no {dim} dimension")
        return self.channels[dim]

    def channels_for(self, dim: Dimension, group: GroupKey) -> list[Channel]:
        groups = self.groups(dim)
        if group not in groups:
            raise TopologyError(f"no group {group} in {dim} dimension")
        return groups[group]

    def dim_size(self, dim: Dimension) -> int:
        """Number of NPUs in each group of ``dim`` (uniform by construction)."""
        groups = self.groups(dim)
        sizes = {len(chs[0].nodes) for chs in groups.values()}
        if len(sizes) != 1:
            raise TopologyError(
                f"non-uniform group sizes in {dim}: {sorted(sizes)}")
        return min(sizes)

    def total_links(self) -> int:
        return len(self.links)

    def reset(self) -> None:
        """Clear link reservations/stats so the fabric can be reused."""
        for link in self.links:
            link.reset()

    def utilization_report(self) -> dict[str, float]:
        """Aggregate busy-byte counters per link kind (reporting helper)."""
        report: dict[str, float] = {}
        for link in self.links:
            report[f"{link.kind}_bytes"] = report.get(f"{link.kind}_bytes", 0.0) + link.stats.bytes
            report[f"{link.kind}_busy_cycles"] = (
                report.get(f"{link.kind}_busy_cycles", 0.0) + link.stats.busy_cycles
            )
        return report
