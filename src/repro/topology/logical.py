"""Logical topology views over physical fabrics.

The system layer "deals with the logical topology, that might be
completely different from the actual physical network topology"
(Sec. IV-B).  In the default configuration the mapping is one-to-one:
:class:`LogicalTopology` simply decorates a fabric with scope handling
(which dimensions a collective spans — hybrid parallelism restricts
collectives to subsets of dimensions) and with builder conveniences.
Non-identity mappings are built with :mod:`repro.topology.mapping`.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Sequence

from repro.config.parameters import (
    AllToAllShape,
    NetworkConfig,
    SystemConfig,
    TopologyKind,
    TorusShape,
    check_arity,
)
from repro.config.units import Clock, DEFAULT_CLOCK
from repro.errors import TopologyError
from repro.network.physical.fabric import Fabric, Ring, Switch
from repro.dims import Dimension


class LogicalTopology:
    """A fabric plus collective-facing dimension scoping."""

    def __init__(self, fabric: Fabric):
        self.fabric = fabric

    @property
    def num_npus(self) -> int:
        return self.fabric.num_npus

    @property
    def dimensions(self) -> list[Dimension]:
        return self.fabric.dimensions

    def dim_sizes(self, scope: Optional[Sequence[Dimension]] = None) -> list[tuple[Dimension, int]]:
        """(dimension, size) pairs in traversal order, optionally scoped.

        ``scope=None`` means the collective spans every dimension (pure
        data parallelism); hybrid parallelism passes the subset of
        dimensions its group runs across (Sec. V-E).
        """
        dims = self.fabric.dimensions
        if scope is not None:
            unknown = [d for d in scope if d not in dims]
            if unknown:
                raise TopologyError(f"scope dimensions {unknown} not in topology {dims}")
            dims = [d for d in dims if d in set(scope)]
        return [(d, self.fabric.dim_size(d)) for d in dims]


def _local_rings(size: int, network: NetworkConfig, system: SystemConfig) -> Ring:
    """The intra-package dimension: unidirectional rings that alternate
    direction for link-load balance."""
    return Ring(Dimension.LOCAL, size, network.local_link,
                rings=system.local_rings, bidirectional=False, kind="local")


def torus_blocks(
    shape: TorusShape, network: NetworkConfig, system: SystemConfig
) -> list[Ring]:
    """The Fig. 3a torus as blocks: NPU ``l + M*h + M*N*v`` at (l, h, v),
    bidirectional inter-package rings (Table III #9-#11 ring counts)."""
    return [
        _local_rings(shape.local, network, system),
        Ring(Dimension.HORIZONTAL, shape.horizontal, network.package_link,
             rings=system.horizontal_rings),
        Ring(Dimension.VERTICAL, shape.vertical, network.package_link,
             rings=system.vertical_rings),
    ]


def build_torus_topology(
    shape: TorusShape,
    network: NetworkConfig,
    system: Optional[SystemConfig] = None,
    clock: Clock = DEFAULT_CLOCK,
) -> LogicalTopology:
    """Build a hierarchical torus with ring counts from ``system``
    (Table III #9-#11); defaults to the Table IV ring counts."""
    system = system if system is not None else SystemConfig()
    return LogicalTopology(Fabric(torus_blocks(shape, network, system), network, clock))


def build_alltoall_topology(
    shape: AllToAllShape,
    network: NetworkConfig,
    system: Optional[SystemConfig] = None,
    clock: Clock = DEFAULT_CLOCK,
) -> LogicalTopology:
    """Build a Fig. 3b hierarchical alltoall: local rings plus the
    configured global switches (Table III #12), which attach every NPU."""
    system = system if system is not None else SystemConfig()
    blocks = [
        _local_rings(shape.local, network, system),
        Switch(Dimension.ALLTOALL, shape.packages, network.package_link,
               switches=system.global_switches),
    ]
    return LogicalTopology(Fabric(blocks, network, clock))


def topology_builder(kind: TopologyKind, dims: Sequence[int], network: NetworkConfig
                     ) -> Callable[[Optional[SystemConfig]], LogicalTopology]:
    """The builder of the ``kind`` topology of shape ``dims`` on ``network``,
    called with the system config that sets its ring and switch counts:
    the one place a family picks its shape class and builder.  The shape
    is checked now, not when the builder runs: a platform is refused when
    it is made, so nothing downstream re-checks its fabric."""
    check_arity(kind, dims)
    if math.prod(dims) < 2:
        raise TopologyError(f"a {kind.value} of shape {'x'.join(map(str, dims))} "
                            f"has a single NPU; a platform needs at least 2")
    if kind is TopologyKind.TORUS:
        return functools.partial(build_torus_topology, TorusShape(*dims), network)
    return functools.partial(build_alltoall_topology, AllToAllShape(*dims), network)
