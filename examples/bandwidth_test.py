#!/usr/bin/env python
"""Collective bandwidth test (nccl-tests style) on the paper's platforms.

Prints latency, algorithm bandwidth and bus bandwidth per collective and
message size for a 4x4x4 asymmetric torus with the enhanced algorithm.
At the 1 GHz default clock, bytes/cycle reads directly as GB/s.

Run with::

    python examples/bandwidth_test.py
"""

from repro import CollectiveAlgorithm, CollectiveOp, TorusShape
from repro.config.units import KB, MB
from repro.harness.bandwidth_test import format_points, measure
from repro.harness.runners import torus_platform

SIZES = (64 * KB, 512 * KB, 4 * MB, 32 * MB)


def main() -> None:
    def platform():
        return torus_platform(TorusShape(4, 4, 4),
                              algorithm=CollectiveAlgorithm.ENHANCED)

    for op in (CollectiveOp.ALL_REDUCE, CollectiveOp.REDUCE_SCATTER,
               CollectiveOp.ALL_GATHER, CollectiveOp.ALL_TO_ALL):
        print(f"\n{op.value} on 4x4x4 (64 NPUs, enhanced):")
        points = measure(platform, op, SIZES)
        print(format_points(points))


if __name__ == "__main__":
    main()
