"""Ablation — baseline vs enhanced all-reduce across local:package
bandwidth ratios.

The enhanced (4-phase) algorithm trades two extra local phases for 1/M
the inter-package volume, so its advantage should grow with the
local-bandwidth advantage and shrink toward parity on symmetric links.
"""

from repro.collectives.types import CollectiveOp
from repro.config.parameters import (
    CollectiveAlgorithm,
    NetworkConfig,
    SimulationConfig,
    SystemConfig,
    TorusShape,
)
from repro.config.presets import PAPER_PACKAGE_LINK
from repro.config.units import MB
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology

from bench_common import print_table, run_once

RATIOS = (1.0, 2.0, 8.0)


def time_all_reduce(local_ratio: float, algorithm: CollectiveAlgorithm) -> float:
    network = NetworkConfig(
        local_link=PAPER_PACKAGE_LINK.scaled(local_ratio),
        package_link=PAPER_PACKAGE_LINK,
    )
    system_cfg = SystemConfig(algorithm=algorithm)
    topo = build_torus_topology(TorusShape(4, 4, 4), network, system_cfg)
    system = System(topo, SimulationConfig(system=system_cfg, network=network))
    collective = system.request_collective(CollectiveOp.ALL_REDUCE, 8 * MB)
    system.run_until_idle(max_events=200_000_000)
    return collective.duration_cycles


def run_sweep():
    rows = []
    for ratio in RATIOS:
        base = time_all_reduce(ratio, CollectiveAlgorithm.BASELINE)
        enh = time_all_reduce(ratio, CollectiveAlgorithm.ENHANCED)
        rows.append({"local:package BW": ratio, "baseline": base,
                     "enhanced": enh, "speedup": base / enh})
    return rows


def test_ablation_algorithm_vs_asymmetry(benchmark):
    rows = run_once(benchmark, run_sweep)
    print_table("Ablation: enhanced speedup vs bandwidth asymmetry", rows)

    speedups = [r["speedup"] for r in rows]
    assert speedups == sorted(speedups), (
        "the enhanced algorithm's advantage must grow with local bandwidth")
    assert speedups[-1] > 1.5, "at 8x asymmetry the gain is substantial"
