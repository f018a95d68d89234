"""Fig. 15 — ResNet-50 layer-wise compute time and exposed communication.

Paper shape: most layers' weight-gradient all-reduces hide behind
back-propagation; exposure concentrates in the first layers, whose
gradients are computed last with no compute left to cover them
(Sec. III-E), plus layers whose collectives queue behind the rest.
"""

from repro.analysis.report import layer_rows
from repro.harness import fig14

from bench_common import print_table, run_once


def test_fig15_resnet_exposed_comm(benchmark):
    result = run_once(benchmark, lambda: fig14.run(num_iterations=2))
    report = result.report
    rows = [{
        "layer": r.name,
        "compute": r.compute_cycles,
        "raw_comm": r.total_comm_cycles,
        "exposed": r.exposed_cycles,
    } for r in layer_rows(report)]
    print_table("Fig 15: ResNet-50 compute vs exposed comm (2 iters)",
                rows[:12] + rows[-6:])

    total_exposed = report.total_exposed_cycles
    print(f"\ntotal: compute={report.total_compute_cycles:,.0f} "
          f"exposed={total_exposed:,.0f} "
          f"ratio={report.exposed_comm_ratio:.1%}")

    assert report.total_compute_cycles > 0
    # Exposure exists but communication is mostly overlapped at 1x compute.
    assert 0.0 <= report.exposed_comm_ratio < 0.5
    # Exposure concentrates in the early layers (first third of the model).
    early = sum(r["exposed"] for r in rows[:18])
    late = sum(r["exposed"] for r in rows[36:])
    assert early >= late
