#!/usr/bin/env python
"""Hybrid-parallel Transformer training (the paper's Fig. 13 study).

Simulates two iterations of a 6-layer Transformer encoder on a 2x2x2
torus: data-parallel across the local and horizontal dimensions,
model-parallel across vertical.  Forward activations are all-gathered
and input gradients all-reduced across the model-parallel dimension
(both blocking), while weight gradients all-reduce across the
data-parallel dimensions and overlap with back-propagation.

Run with::

    python examples/transformer_hybrid.py
"""

from repro.analysis.report import RunSummary, layer_rows
from repro.harness.fig13 import run as run_fig13


def main() -> None:
    result = run_fig13(num_iterations=2)
    report = result.report

    print(RunSummary.from_report(report).format())
    print()
    print("Layer-wise raw communication time (two iterations, cycles):")
    print(f"{'layer':<14} {'fwd (act AG)':>14} {'ig (AR)':>14} {'wg (AR)':>14}")
    for row in layer_rows(report):
        print(f"{row.name:<14} {row.forward_comm_cycles:>14,.0f} "
              f"{row.input_grad_comm_cycles:>14,.0f} "
              f"{row.weight_grad_comm_cycles:>14,.0f}")

    encoder_rows = [r for r in layer_rows(report) if r.name.startswith("encoder")]
    times = [r.total_comm_cycles for r in encoder_rows]
    spread = (max(times) - min(times)) / max(times) if max(times) else 0.0
    print()
    print(f"Encoder layers are structurally identical: comm-time spread "
          f"across encoder1..encoder6 is {spread:.1%} (the paper's Fig. 13 "
          f"shows the same uniformity).")


if __name__ == "__main__":
    main()
