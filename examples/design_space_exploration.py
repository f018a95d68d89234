#!/usr/bin/env python
"""SW/HW co-design exploration — the paper's headline use case.

Sweeps a slice of the Fig. 1 design space: topology family x shape x
collective algorithm x local-bandwidth asymmetry, for two all-reduce
payloads — a latency-bound 512 KB exchange and a bandwidth-bound 16 MB
one.  The winner flips between regimes, which is the paper's point: the
platform and the algorithm must be co-designed for the workload.

Run with::

    python examples/design_space_exploration.py
"""

from repro import (
    AllToAllShape,
    CollectiveAlgorithm,
    CollectiveOp,
    TorusShape,
)
from repro.analysis.compare import ComparisonTable
from repro.config.units import MB
from repro.harness.runners import alltoall_platform, run_collective, torus_platform

SIZES = {"512 KB (latency-bound)": MB // 2, "16 MB (bandwidth-bound)": 16 * MB}


def candidates():
    # 64 NPUs arranged several ways, baseline vs enhanced where it applies.
    return {
        "1x64x1 ring, baseline": torus_platform(
            TorusShape(1, 64, 1), horizontal_rings=4),
        "1x8x8 torus, baseline": torus_platform(TorusShape(1, 8, 8)),
        "4x4x4 torus, baseline": torus_platform(
            TorusShape(4, 4, 4), algorithm=CollectiveAlgorithm.BASELINE),
        "4x4x4 torus, enhanced": torus_platform(
            TorusShape(4, 4, 4), algorithm=CollectiveAlgorithm.ENHANCED),
        "4x4x4 symmetric, enhanced": torus_platform(
            TorusShape(4, 4, 4), algorithm=CollectiveAlgorithm.ENHANCED,
            symmetric=True),
        "4x16 alltoall, enhanced": alltoall_platform(
            AllToAllShape(4, 16), algorithm=CollectiveAlgorithm.ENHANCED,
            global_switches=4),
    }


def main() -> None:
    for title, size in SIZES.items():
        table = ComparisonTable(metric="cycles")
        for label, platform in candidates().items():
            result = run_collective(platform, CollectiveOp.ALL_REDUCE, size)
            table.add(label, result.duration_cycles)
        print(f"all-reduce of {title} across 64 NPUs:\n")
        print(table.format(baseline="1x64x1 ring, baseline"))
        print(f"\nbest configuration: {table.best()}\n")

    print("The co-design headline in one sweep: hierarchy + asymmetric")
    print("bandwidth + the algorithm that exploits them win the latency-bound")
    print("regime, while flat rings with minimal volume win once messages are")
    print("purely bandwidth-bound — the platform must match the workload.")


if __name__ == "__main__":
    main()
