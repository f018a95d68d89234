"""Automatic logical-onto-physical topology mapping.

Realizes the Sec. IV-B feature as a one-call operation: take any
*logical* hierarchical-torus shape and lay its rings over an arbitrary
*physical* fabric, routing every logical hop along the fabric's
minimum-latency link path.  Logical hops that are not physically adjacent
share physical links with other rings — exactly the contention the
feature exists to study.
"""

from __future__ import annotations

from repro.config.parameters import SystemConfig, TorusShape
from repro.dims import Dimension
from repro.errors import TopologyError
from repro.network.physical.fabric import Fabric, GroupKey
from repro.network.routing import FabricRouter
from repro.topology.logical import LogicalTopology, torus_blocks
from repro.topology.mapping import MappedRingChannel


class _MappedFabricView(Fabric):
    """A channel structure borrowed from a host fabric's links.

    Shares the host's links (and thus its contention) but presents the
    logical shape's dimensions/groups to the system layer.
    """

    def __init__(self, host: Fabric, shape: TorusShape):
        # Deliberately skip Fabric.__init__'s link allocation: this view
        # owns no links of its own, only the logical shape's coordinates.
        self._set_blocks(torus_blocks(shape, host.network, SystemConfig()))
        self.network = host.network
        self.clock = host.clock
        self.links = host.links
        self.channels = {}


def map_torus_onto_fabric(
    shape: TorusShape,
    physical: Fabric,
    rings_per_dim: int = 1,
) -> LogicalTopology:
    """Lay a logical M x N x K torus over ``physical``.

    The logical NPU numbering is the identity (logical node i is physical
    NPU i); the shape's NPU count must match the fabric's.  Every logical
    dimension gets ``rings_per_dim`` ring channels whose hops are routed
    physical paths; channels beyond the first reuse the same paths (the
    physical links are the shared resource).
    """
    if shape.num_npus != physical.num_npus:
        raise TopologyError(
            f"logical shape {shape} has {shape.num_npus} NPUs, fabric has "
            f"{physical.num_npus}"
        )
    if rings_per_dim < 1:
        raise TopologyError("rings_per_dim must be >= 1")

    router = FabricRouter(physical)
    view = _MappedFabricView(physical, shape)

    def add_rings(dim: Dimension, group: GroupKey, nodes: list[int]) -> None:
        hop_paths = [
            router.path(nodes[i], nodes[(i + 1) % len(nodes)])
            for i in range(len(nodes))
        ]
        channels = []
        for r in range(rings_per_dim):
            order = list(reversed(nodes)) if r % 2 else list(nodes)
            paths = ([router.path(order[i], order[(i + 1) % len(order)])
                      for i in range(len(order))]
                     if r % 2 else hop_paths)
            channels.append(MappedRingChannel(
                order, paths, name=f"mapped-{dim}{group}#{r}"))
        view._add_channels(dim, group, channels)

    for axis, block in enumerate(view.blocks):
        if block.size >= 2:
            for group, nodes in view.block_groups(axis):
                add_rings(block.dim, group, nodes)
    if not view.channels:
        raise TopologyError(f"degenerate logical shape {shape}")
    return LogicalTopology(view)
