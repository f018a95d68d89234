#!/usr/bin/env python
"""Logical-vs-physical topology mapping (Sec. IV-B).

The system layer works on a *logical* topology that may differ from the
physical one.  This example maps a logical 4-node ring onto a physical
8-node ring two ways — onto the even positions (each logical hop = two
physical links) and onto four adjacent nodes plus a long wrap path — and
compares ring all-reduce latency.  Sharing and longer physical paths
show up as extra serialization and queuing, exactly the trade-off the
paper's mapping feature exposes.

Run with::

    python examples/logical_mapping.py
"""

from repro import EventQueue, FastBackend, SystemConfig, TorusShape, paper_network_config
from repro.collectives.context import CollectiveContext
from repro.collectives.ring_algorithms import RingAllReduce
from repro.config.units import MB
from repro.dims import Dimension
from repro.topology.logical import build_torus_topology
from repro.topology.mapping import map_ring_over_ring


def time_all_reduce(ring, network, size_bytes: float) -> float:
    events = EventQueue()
    backend = FastBackend(events, network)
    ctx = CollectiveContext(backend)
    algorithm = RingAllReduce(ctx, ring, size_bytes)
    algorithm.start_all()
    events.run(max_events=5_000_000)
    assert algorithm.done
    return algorithm.finished_at


def main() -> None:
    network = paper_network_config()
    fabric = build_torus_topology(TorusShape(1, 8, 1), network,
                                  SystemConfig(horizontal_rings=1)).fabric
    physical = fabric.channels_for(Dimension.HORIZONTAL, (0, 0))[0]
    size = 4 * MB

    t_physical = time_all_reduce(physical, network, size)
    print(f"physical 8-ring all-reduce of 4 MB:        {t_physical:>12,.0f} cycles")

    evens = map_ring_over_ring(physical.nodes[::2], physical, name="even-4ring")
    t_evens = time_all_reduce(evens, network, size)
    print(f"logical 4-ring on even nodes (2 links/hop): {t_evens:>12,.0f} cycles")

    adjacent = map_ring_over_ring(physical.nodes[:4], physical, name="front-4ring")
    t_adjacent = time_all_reduce(adjacent, network, size)
    print(f"logical 4-ring on nodes 0-3 (5-link wrap):  {t_adjacent:>12,.0f} cycles")

    print()
    print("Fewer logical steps (6 vs 14) trade against longer physical hops;")
    print("the mapping API lets the system layer explore exactly this space.")


if __name__ == "__main__":
    main()
