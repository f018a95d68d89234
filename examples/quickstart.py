#!/usr/bin/env python
"""Quickstart: simulate two iterations of data-parallel ResNet-50 training
on a 2x4x4 hierarchical torus (the paper's Fig. 14/15 setup).

Run with::

    python examples/quickstart.py
"""

from repro import (
    CollectiveAlgorithm,
    System,
    TorusShape,
    TrainingLoop,
    build_torus_topology,
    paper_simulation_config,
    resnet50,
)
from repro.analysis.report import RunSummary, format_breakdown, format_layer_table


def main() -> None:
    # 1. Configuration: the paper's Table IV parameters with the enhanced
    #    (4-phase) hierarchical all-reduce.
    config = paper_simulation_config(algorithm=CollectiveAlgorithm.ENHANCED)

    # 2. Platform: 2 NAMs per package, 4x4 packages = 32 NPUs.
    topology = build_torus_topology(TorusShape(2, 4, 4), config.network,
                                    config.system)
    system = System(topology, config)

    # 3. Workload: ResNet-50, local minibatch 32, data-parallel, with
    #    layer compute delays from the analytical systolic-array model.
    model = resnet50(compute=config.compute, minibatch=32)

    # 4. Simulate two training iterations.
    report = TrainingLoop(system, model, num_iterations=2).run()

    # 5. Reports.
    print(RunSummary.from_report(report).format())
    print()
    print("First ten layers (cycles):")
    print(format_layer_table(report, max_rows=10))
    print()
    print("Queue/network delay breakdown (Fig. 12b style):")
    print(format_breakdown(system.breakdown))


if __name__ == "__main__":
    main()
