#!/usr/bin/env python
"""DLRM-style recommendation training on the hierarchical alltoall fabric.

The paper motivates the all-to-all collective with DNNs that keep a
distributed key/value (embedding) table across nodes — DLRM.  This
example trains the DLRM workload on a 4x8 hierarchical alltoall platform
(4 NAMs per package, 8 packages through 2 global switches): embedding
exchanges run as all-to-all over the switch fabric, MLP weight gradients
all-reduce over the local rings.

Run with::

    python examples/dlrm_alltoall.py
"""

from repro import AllToAllShape, CollectiveAlgorithm, Dimension
from repro.analysis.report import RunSummary, format_layer_table
from repro.harness.runners import alltoall_platform, run_training
from repro.models.dlrm import dlrm
from repro.workload.parallelism import hybrid


def main() -> None:
    platform = alltoall_platform(
        AllToAllShape(local=4, packages=8),
        algorithm=CollectiveAlgorithm.ENHANCED,
        global_switches=2,
    )
    # Tables sharded across packages (the alltoall dimension); MLPs
    # replicated across the local rings.
    strategy = hybrid(
        data_dims=(Dimension.LOCAL,),
        model_dims=(Dimension.ALLTOALL,),
    )
    model = dlrm(compute=platform.config.compute, minibatch=256,
                 strategy=strategy)

    report, system = run_training(model, platform, num_iterations=2)
    print(RunSummary.from_report(report).format())
    print()
    print(format_layer_table(report))


if __name__ == "__main__":
    main()
