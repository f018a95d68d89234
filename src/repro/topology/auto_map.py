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
from repro.errors import TopologyError
from repro.network.link import Link
from repro.network.physical.fabric import Fabric
from repro.network.routing import FabricRouter
from repro.topology.logical import LogicalTopology, torus_blocks
from repro.topology.mapping import MappedRingChannel


class _MappedFabricView(Fabric):
    """The logical shape's blocks over a host fabric's links.

    It owns no links: every ring hop is a routed path over the host's
    links (and thus shares their contention).  Every group is built here,
    so a check over built groups
    (:meth:`repro.system.sys_layer.System._quotient_copies`) sees every
    mapped ring.
    """

    def __init__(self, host: Fabric, shape: TorusShape, rings_per_dim: int):
        super().__init__(torus_blocks(shape, host.network, SystemConfig()),
                         host.network, host.clock)
        self._host = host
        router = FabricRouter(host)
        for axis, block in enumerate(self.blocks):
            if block.size >= 2:
                for group, nodes in self.block_groups(axis):
                    self._built[block.dim][group] = _mapped_rings(
                        router, f"mapped-{block.dim}{group}#", nodes, rings_per_dim)

    @property
    def links(self) -> list[Link]:
        return self._host.links


def _mapped_rings(router: FabricRouter, name: str, nodes: list[int],
                  rings_per_dim: int) -> list[MappedRingChannel]:
    """``rings_per_dim`` rings over ``nodes``, alternating direction, whose
    hops are ``router``'s paths."""
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
        channels.append(MappedRingChannel(order, paths, name=f"{name}{r}"))
    return channels


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
    return LogicalTopology(_MappedFabricView(physical, shape, rings_per_dim))
