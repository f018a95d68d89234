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
the order of :attr:`Fabric.links`.  A dimension's groups enumerate the
other coordinates lowest-stride first, and a group key is those
coordinates in block order.  A group's links are built when the group is
first asked for, but they are listed in that order whatever order the
groups were built in.  Collectives still traverse dimensions in
:data:`~repro.dims.TRAVERSAL_ORDER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

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
    """Every physical link of a system plus per-dimension channel groups.

    A group's links and channels are built the first time something asks
    for the group (:meth:`channels_for`), so a quotient run, which
    simulates NPU 0 alone, builds only NPU 0's group of each ring
    dimension.  :attr:`links`, :attr:`channels` and :meth:`groups` build
    whatever is still missing and list it in block-then-group order,
    whatever order the groups were built in.
    """

    def __init__(
        self,
        blocks: Sequence[Block],
        network: NetworkConfig,
        clock: Clock = DEFAULT_CLOCK,
    ):
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
        self.network = network
        self.clock = clock
        #: Serialization memos shared by every link of this fabric (see
        #: :class:`Link`): one per link config rather than one per link.
        self._serialization_memos: dict = {}
        #: dim -> {group key: parallel channels}, one entry per group built
        #: so far (see :meth:`built_groups`).
        self._built: dict[Dimension, dict[GroupKey, list[Channel]]] = {
            block.dim: {} for block in self.blocks if block.size >= 2}
        if not self._built:
            raise TopologyError("degenerate fabric: every dimension has size 1")
        #: The switch block's switches, built with its first group and
        #: shared by all of its groups.
        self._switches: list[SwitchChannel] | None = None
        #: Every link in block-then-group order, once all groups are built.
        self._links: list[Link] | None = None

    # -- coordinates ------------------------------------------------------------

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

    # -- construction ------------------------------------------------------------

    def _build_group(self, dim: Dimension, group: GroupKey) -> list[Channel]:
        """Build the channels of one group: its rings, or the switch
        block's switches on its first group."""
        members = self.group_members(dim, group)  # raises for a bad key
        block = self.blocks[self._axis(dim)]
        if isinstance(block, Switch):
            if self._switches is None:
                # At most one Switch block, so its ids follow the NPUs'.
                self._switches = [self._build_switch(block, self.num_npus + i)
                                  for i in range(block.switches)]
            return self._switches
        if block.bidirectional:
            directions = [(f"{r}{tag}", reverse) for r in range(block.rings)
                          for tag, reverse in (("cw", False), ("ccw", True))]
        else:
            directions = [(str(r), bool(r % 2)) for r in range(block.rings)]
        name = f"{block.dim.value}{group}#"
        rings = [self._build_ring(members, block, name + tag, reverse)
                 for tag, reverse in directions]
        # Rings come in counter-rotating pairs 2i/2i+1; a trailing
        # unpaired ring (odd unidirectional count) has no partner.
        for i in range(0, len(rings) - 1, 2):
            pair_reverse_rings(rings[i], rings[i + 1])
        return rings

    def _new_link(self, src: int, dst: int, config: LinkConfig, kind: str) -> Link:
        return Link(src, dst, config, kind=kind, clock=self.clock,
                    memos=self._serialization_memos)

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

    # -- queries ---------------------------------------------------------------

    def _axis(self, dim: Dimension) -> int:
        """The block index of ``dim``; an absent or size-1 dimension raises."""
        for axis, block in enumerate(self.blocks):
            if block.dim is dim and block.size >= 2:
                return axis
        raise TopologyError(f"fabric has no {dim} dimension")

    @property
    def dimensions(self) -> list[Dimension]:
        """Dimensions present, in collective traversal order (Sec. III-D)."""
        present = {block.dim for block in self.blocks if block.size >= 2}
        return [d for d in TRAVERSAL_ORDER if d in present]

    def dim_size(self, dim: Dimension) -> int:
        """Number of NPUs in each group of ``dim``: its block's size (a
        switch's channels span every NPU, but its groups hold one NPU per
        package)."""
        return self.blocks[self._axis(dim)].size

    def group_members(self, dim: Dimension, group: GroupKey) -> list[int]:
        """The NPUs of ``group`` within ``dim``, in ring order."""
        axis = self._axis(dim)
        key_axes = self._key_axes[dim]
        if len(group) != len(key_axes) or not all(
                0 <= c < size for c, (_stride, size) in zip(group, key_axes)):
            raise TopologyError(f"no group {group} in {dim} dimension")
        base = sum(c * stride for c, (stride, _size) in zip(group, key_axes))
        stride = self._strides[axis]
        return list(range(base, base + stride * self.blocks[axis].size, stride))

    def channels_for(self, dim: Dimension, group: GroupKey) -> list[Channel]:
        """The parallel channels of ``group`` within ``dim``, built on the
        first call."""
        built = self._built.get(dim)
        if built is None:
            raise TopologyError(f"fabric has no {dim} dimension")
        channels = built.get(group)
        if channels is None:
            channels = built[group] = self._build_group(dim, group)
        return channels

    def groups(self, dim: Dimension) -> dict[GroupKey, list[Channel]]:
        """Every group of ``dim`` in enumeration order, building any still
        missing."""
        return {key: self.channels_for(dim, key)
                for key, _members in self.block_groups(self._axis(dim))}

    def built_groups(self, dim: Dimension) -> dict[GroupKey, list[Channel]]:
        """The groups of ``dim`` built so far, in build order, with none
        for a dimension the fabric lacks; builds nothing.  Read-only: a
        group not in it has no links yet, so nothing has touched it."""
        return self._built.get(dim, {})

    @property
    def channels(self) -> dict[Dimension, dict[GroupKey, list[Channel]]]:
        """:meth:`groups` of every dimension, in block order."""
        return {dim: self.groups(dim) for dim in self._built}

    @property
    def links(self) -> list[Link]:
        """Every link in block-then-group order, building every group
        still missing.  The order is behaviour: fault sampling and the
        :class:`~repro.network.routing.FabricRouter` tie-breaks follow it."""
        if self._links is None:
            # A switch block's groups share its switches: list each once.
            channels = dict.fromkeys(
                channel for groups in self.channels.values()
                for group in groups.values() for channel in group)
            self._links = [link for channel in channels for link in channel.links]
        return self._links

    def total_links(self) -> int:
        return len(self.links)
