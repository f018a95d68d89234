#!/usr/bin/env python
"""Compare collective performance across scale-up topologies (Sec. V-A/V-C).

Times an 8 MB all-reduce and all-to-all on:

* a 1x8x1 torus ring (four bidirectional rings, Fig. 9 setup),
* a 1x8 alltoall through seven global switches (Fig. 9 setup),
* a 4x4x4 asymmetric hierarchical torus, baseline vs enhanced algorithm
  (Fig. 11 setup).

Run with::

    python examples/topology_comparison.py
"""

from repro import (
    AllToAllShape,
    CollectiveAlgorithm,
    CollectiveOp,
    TorusShape,
)
from repro.config.units import MB, format_bytes
from repro.harness.runners import alltoall_platform, run_collective, torus_platform

SIZE = 8 * MB


def time_platform(name: str, platform, op: CollectiveOp) -> None:
    result = run_collective(platform, op, SIZE)
    print(f"  {name:<38} {result.duration_cycles:>12,.0f} cycles")


def main() -> None:
    print(f"Collective payload: {format_bytes(SIZE)}\n")

    for op in (CollectiveOp.ALL_REDUCE, CollectiveOp.ALL_TO_ALL):
        print(f"{op.value}:")
        time_platform(
            "1x8x1 torus ring (4 bidir rings)",
            torus_platform(TorusShape(1, 8, 1), horizontal_rings=4),
            op,
        )
        time_platform(
            "1x8 alltoall (7 switches)",
            alltoall_platform(AllToAllShape(1, 8), global_switches=7),
            op,
        )
        time_platform(
            "4x4x4 asymmetric torus, baseline",
            torus_platform(TorusShape(4, 4, 4),
                           algorithm=CollectiveAlgorithm.BASELINE),
            op,
        )
        time_platform(
            "4x4x4 asymmetric torus, enhanced",
            torus_platform(TorusShape(4, 4, 4),
                           algorithm=CollectiveAlgorithm.ENHANCED),
            op,
        )
        print()


if __name__ == "__main__":
    main()
