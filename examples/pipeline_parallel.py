#!/usr/bin/env python
"""Pipeline-parallel training with GPipe-style microbatching.

Partitions an 8-layer MLP across four pipeline stages placed on an
8-package ring and sweeps the microbatch count, showing the pipeline
bubble shrink toward the GPipe ideal (S-1)/(M+S-1).

Run with::

    python examples/pipeline_parallel.py
"""

from repro import System, TorusShape, paper_simulation_config
from repro.config.units import KB
from repro.models import mlp
from repro.topology import build_torus_topology
from repro.workload.pipeline import PipelineTrainingLoop, partition_model

STAGE_NODES = [0, 2, 4, 6]


def run(num_microbatches: int):
    config = paper_simulation_config()
    topology = build_torus_topology(TorusShape(1, 8, 1), config.network,
                                    config.system)
    system = System(topology, config)
    model = mlp(widths=(4096,) * 8, compute=config.compute)
    stages = partition_model(model, STAGE_NODES, num_microbatches,
                             activation_bytes=512 * KB)
    return PipelineTrainingLoop(system, stages, num_microbatches).run()


def main() -> None:
    print(f"{'microbatches':>12} {'total cycles':>14} {'bubble':>8} "
          f"{'GPipe ideal':>12}")
    for m in (1 + 1, 4, 8, 16, 32):
        report = run(m)
        print(f"{m:>12} {report.total_cycles:>14,.0f} "
              f"{report.bubble_fraction:>7.1%} "
              f"{report.ideal_bubble_fraction:>11.1%}")
    print("\nThe measured bubble tracks (S-1)/(M+S-1) plus the activation")
    print("transfer time the simulator charges on the stage-to-stage hops.")


if __name__ == "__main__":
    main()
