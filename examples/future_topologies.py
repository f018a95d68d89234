#!/usr/bin/env python
"""The paper's future-work topologies: 4D torus and scale-out fabrics.

Sec. III-C defers 4D/5D tori to future work and Sec. VII plans a
scale-out (Ethernet-class) extension; both are implemented here.  This
example all-reduces the same payload over 32 NPUs arranged three ways:

* a 3D torus 2x4x4 (the paper's main shape),
* a 4D torus 2x2x2x4 (one more, shorter, dimension),
* a scale-out system: four 2x2x2 scale-up pods ringed by 100 GbE-class
  links.

Run with::

    python examples/future_topologies.py
"""

from repro import (
    CollectiveAlgorithm,
    CollectiveOp,
    SimulationConfig,
    System,
    SystemConfig,
    TorusShape,
    paper_network_config,
)
from repro.config.presets import DEFAULT_SCALEOUT_LINK
from repro.config.units import MB, format_bytes
from repro.dims import Dimension
from repro.network.physical.fabric import Fabric, Ring
from repro.topology.logical import LogicalTopology, build_torus_topology

SIZE = 8 * MB


def ring_stack(network, outer: Ring) -> LogicalTopology:
    """Two unidirectional local rings per 2-NAM package, bidirectional
    2x2 package rings, then ``outer`` as the slowest dimension."""
    return LogicalTopology(Fabric([
        Ring(Dimension.LOCAL, 2, network.local_link, rings=2,
             bidirectional=False, kind="local"),
        Ring(Dimension.VERTICAL, 2, network.package_link),
        Ring(Dimension.HORIZONTAL, 2, network.package_link),
        outer,
    ], network))


def time_all_reduce(topology: LogicalTopology, network) -> float:
    config = SimulationConfig(
        system=SystemConfig(algorithm=CollectiveAlgorithm.ENHANCED),
        network=network,
    )
    system = System(topology, config)
    collective = system.request_collective(CollectiveOp.ALL_REDUCE, SIZE)
    system.run_until_idle(max_events=300_000_000)
    return collective.duration_cycles


def main() -> None:
    network = paper_network_config()
    print(f"all-reduce of {format_bytes(SIZE)} over 32 NPUs "
          f"(enhanced algorithm):\n")

    torus3d = build_torus_topology(TorusShape(2, 4, 4), network)
    print(f"  3D torus 2x4x4:              "
          f"{time_all_reduce(torus3d, network):>12,.0f} cycles")

    torus4d = ring_stack(network, Ring(Dimension.FOURTH, 4, network.package_link))
    print(f"  4D torus 2x2x2x4:            "
          f"{time_all_reduce(torus4d, network):>12,.0f} cycles")

    scaleout = ring_stack(network, Ring(Dimension.SCALEOUT, 4, DEFAULT_SCALEOUT_LINK,
                                        kind="scaleout"))
    print(f"  4 pods of 2x2x2 over 100GbE: "
          f"{time_all_reduce(scaleout, network):>12,.0f} cycles")

    print("\nShorter rings per dimension cut steps (4D benefit); pushing the")
    print("outermost dimension onto scale-out links shows why the enhanced")
    print("algorithm's volume reduction matters most on the slowest tier.")


if __name__ == "__main__":
    main()
