"""Physical fabric: links and channels built from an ordered block list.

The paper's fabrics (Fig. 3, Sec. III-C) stack two kinds of dimension:

* :class:`Ring` — rings over every group of ``size`` NPUs that share all
  other coordinates.  A bidirectional ring is "divided into two
  unidirectional rings" (a clockwise and a counter-clockwise channel);
  unidirectional rings (the intra-package ones) alternate direction.
* :class:`Switch` — the hierarchical alltoall's global switches.  Every
  switch has an uplink and a downlink to every NPU, and all groups of the
  dimension share them.

Block order is both the NPU numbering (the first block has stride 1) and
the link build order.  A dimension's groups enumerate the other
coordinates lowest-stride first, and a group key is those coordinates in
block order.  Collectives still traverse dimensions in
:data:`~repro.dims.TRAVERSAL_ORDER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from repro.config.parameters import LinkConfig, NetworkConfig
from repro.config.units import Clock, DEFAULT_CLOCK
from repro.dims import Dimension, TRAVERSAL_ORDER
from repro.errors import TopologyError
from repro.network.channel import Channel, RingChannel, SwitchChannel, pair_reverse_rings
from repro.network.link import Link

#: A dimension group key: the coordinates held fixed while traversing the
#: dimension, in block order (e.g. (local, horizontal) for the vertical
#: dimension of a torus).
GroupKey = tuple[int, ...]


@dataclass(frozen=True)
class Ring:
    """A ring dimension: ``rings`` physical rings per group over ``link``.

    Bidirectional rings contribute two unidirectional channels each.
    """

    dim: Dimension
    size: int
    link: LinkConfig
    rings: int = 1
    bidirectional: bool = True
    kind: str = "package"

    def __post_init__(self) -> None:
        if self.size < 1:
            raise TopologyError(f"dimension {self.dim} size must be >= 1")
        if self.rings < 1:
            raise TopologyError(f"dimension {self.dim} needs >= 1 ring")


@dataclass(frozen=True)
class Switch:
    """A global-switch dimension: ``switches`` switches attached to every
    NPU, shared by all of the dimension's groups."""

    dim: Dimension
    size: int
    link: LinkConfig
    switches: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise TopologyError(f"dimension {self.dim} size must be >= 1")
        if self.switches < 1:
            raise TopologyError(f"dimension {self.dim} needs >= 1 switch")


Block = Union[Ring, Switch]


class Fabric:
    """Every physical link of a system plus per-dimension channel groups."""

    def __init__(
        self,
        blocks: Sequence[Block],
        network: NetworkConfig,
        clock: Clock = DEFAULT_CLOCK,
    ):
        self._set_blocks(blocks)
        self.network = network
        self.clock = clock
        self.links: list[Link] = []
        #: Serialization memos shared by every link of this fabric (see
        #: :class:`Link`): one per link config rather than one per link.
        self._serialization_memos: dict = {}
        #: channels[dim][group_key] -> list of parallel channels for that group
        self.channels: dict[Dimension, dict[GroupKey, list[Channel]]] = {}
        for axis, block in enumerate(self.blocks):
            if block.size < 2:
                continue
            if isinstance(block, Switch):
                # At most one Switch block, so its ids follow the NPUs'.
                switches = [self._build_switch(block, self.num_npus + i)
                            for i in range(block.switches)]
                for key, _members in self.block_groups(axis):
                    self._add_channels(block.dim, key, switches)
                continue
            if block.bidirectional:
                directions = [(f"{r}{tag}", reverse) for r in range(block.rings)
                              for tag, reverse in (("cw", False), ("ccw", True))]
            else:
                directions = [(str(r), bool(r % 2)) for r in range(block.rings)]
            for key, members in self.block_groups(axis):
                name = f"{block.dim.value}{key}#"
                rings = [self._build_ring(members, block, name + tag, reverse)
                         for tag, reverse in directions]
                # Rings come in counter-rotating pairs 2i/2i+1; a trailing
                # unpaired ring (odd unidirectional count) has no partner.
                for i in range(0, len(rings) - 1, 2):
                    pair_reverse_rings(rings[i], rings[i + 1])
                self._add_channels(block.dim, key, rings)
        if not self.channels:
            raise TopologyError("degenerate fabric: every dimension has size 1")

    # -- coordinates ------------------------------------------------------------

    def _set_blocks(self, blocks: Sequence[Block]) -> None:
        """Validate ``blocks`` and derive the NPU numbering from them."""
        blocks = tuple(blocks)
        if not blocks:
            raise TopologyError("a fabric needs at least one dimension block")
        dims = [b.dim for b in blocks]
        if len(set(dims)) != len(dims):
            raise TopologyError(f"duplicate dimensions: {dims}")
        if sum(isinstance(b, Switch) for b in blocks) > 1:
            raise TopologyError("a fabric takes at most one Switch block")
        self.blocks = blocks
        self._strides = []
        num_npus = 1
        for block in blocks:
            self._strides.append(num_npus)
            num_npus *= block.size
        self.num_npus = num_npus
        #: dim -> (stride, size) of every other block, in block order.
        self._key_axes = {
            block.dim: [(stride, other.size)
                        for other, stride in zip(blocks, self._strides)
                        if other is not block]
            for block in blocks
        }

    def coords(self, npu: int) -> tuple[int, ...]:
        if not 0 <= npu < self.num_npus:
            raise TopologyError(f"npu {npu} out of range")
        return tuple(npu // stride % block.size
                     for block, stride in zip(self.blocks, self._strides))

    def npu_id(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.blocks):
            raise TopologyError(
                f"expected {len(self.blocks)} coordinates, got {len(coords)}")
        npu = 0
        for c, block, stride in zip(coords, self.blocks, self._strides):
            if not 0 <= c < block.size:
                raise TopologyError(f"coordinate {c} outside {block.dim} size")
            npu += c * stride
        return npu

    def group_of(self, dim: Dimension, npu: int) -> GroupKey:
        """The group key of ``npu`` within ``dim``."""
        key_axes = self._key_axes.get(dim)
        if key_axes is None:
            raise TopologyError(f"fabric has no {dim} dimension")
        if not 0 <= npu < self.num_npus:
            raise TopologyError(f"npu {npu} out of range")
        return tuple([npu // stride % size for stride, size in key_axes])

    def block_groups(self, axis: int) -> list[tuple[GroupKey, list[int]]]:
        """(key, member NPUs) of every group of block ``axis``, in
        enumeration order; members are in ring order."""
        size = self.blocks[axis].size
        stride = self._strides[axis]
        key_axes = self._key_axes[self.blocks[axis].dim]
        span = stride * size
        return [
            (tuple([base // s % n for s, n in key_axes]),
             list(range(base, base + span, stride)))
            for high in range(0, self.num_npus, span)
            for base in range(high, high + stride)
        ]

    # -- construction helpers -------------------------------------------------

    def _new_link(self, src: int, dst: int, config: LinkConfig, kind: str) -> Link:
        link = Link(src, dst, config, kind=kind, clock=self.clock,
                    memos=self._serialization_memos)
        self.links.append(link)
        return link

    def _build_ring(self, nodes: list[int], block: Ring, name: str, reverse: bool) -> RingChannel:
        """Create a unidirectional ring channel with dedicated links."""
        order = list(reversed(nodes)) if reverse else nodes
        links = [
            self._new_link(order[i], order[(i + 1) % len(order)], block.link, block.kind)
            for i in range(len(order))
        ]
        return RingChannel(order, links, name=name)

    def _build_switch(self, block: Switch, switch_id: int) -> SwitchChannel:
        """Create a global switch with an uplink and a downlink per NPU."""
        nodes = list(range(self.num_npus))
        uplinks = {n: self._new_link(n, switch_id, block.link, "package") for n in nodes}
        downlinks = {n: self._new_link(switch_id, n, block.link, "package") for n in nodes}
        return SwitchChannel(switch_id, nodes, uplinks, downlinks,
                             name=f"{block.dim.value}-switch#{switch_id - self.num_npus}")

    def _add_channels(
        self, dim: Dimension, group: GroupKey, channels: Iterable[Channel]
    ) -> None:
        self.channels.setdefault(dim, {}).setdefault(group, []).extend(channels)

    # -- queries ---------------------------------------------------------------

    @property
    def dimensions(self) -> list[Dimension]:
        """Dimensions present, in collective traversal order (Sec. III-D)."""
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
