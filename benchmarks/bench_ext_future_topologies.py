"""Extension — 4D torus and scale-out fabric (the paper's future work).

Compares the enhanced all-reduce across equal-NPU systems: a 3D torus,
a 4D torus with shorter rings, and a scale-out system whose outermost
dimension rides Ethernet-class links.
"""

from repro.collectives.types import CollectiveOp
from repro.config.parameters import CollectiveAlgorithm, SimulationConfig, SystemConfig, TorusShape
from repro.config.presets import DEFAULT_SCALEOUT_LINK, paper_network_config
from repro.config.units import MB
from repro.dims import Dimension
from repro.network.physical.fabric import Fabric, Ring
from repro.system.sys_layer import System
from repro.topology.logical import LogicalTopology, build_torus_topology

from bench_common import print_table, run_once

SIZE = 4 * MB


def time_all_reduce(topology, network):
    config = SimulationConfig(
        system=SystemConfig(algorithm=CollectiveAlgorithm.ENHANCED),
        network=network,
    )
    system = System(topology, config)
    collective = system.request_collective(CollectiveOp.ALL_REDUCE, SIZE)
    system.run_until_idle(max_events=300_000_000)
    return collective.duration_cycles


def ring_stack(network, outer):
    """2-NAM local rings and 2x2 package rings, then ``outer``."""
    return LogicalTopology(Fabric([
        Ring(Dimension.LOCAL, 2, network.local_link, rings=2,
             bidirectional=False, kind="local"),
        Ring(Dimension.VERTICAL, 2, network.package_link),
        Ring(Dimension.HORIZONTAL, 2, network.package_link),
        outer,
    ], network))


def run_comparison():
    network = paper_network_config()
    return [
        {"system": "3D torus 2x4x4",
         "cycles": time_all_reduce(
             build_torus_topology(TorusShape(2, 4, 4), network), network)},
        {"system": "4D torus 2x2x2x4",
         "cycles": time_all_reduce(
             ring_stack(network, Ring(Dimension.FOURTH, 4, network.package_link)),
             network)},
        {"system": "scale-out 4x(2x2x2)",
         "cycles": time_all_reduce(
             ring_stack(network, Ring(Dimension.SCALEOUT, 4, DEFAULT_SCALEOUT_LINK,
                                      kind="scaleout")),
             network)},
    ]


def test_ext_future_topologies(benchmark):
    rows = run_once(benchmark, run_comparison)
    print_table("Extension: 32-NPU systems, 4MB enhanced all-reduce", rows)

    by_name = {r["system"]: r["cycles"] for r in rows}
    assert by_name["scale-out 4x(2x2x2)"] > by_name["4D torus 2x2x2x4"], (
        "Ethernet-class outer links must cost more than scale-up links")
