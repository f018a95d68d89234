"""Fig. 14 — ResNet-50 layer-wise raw communication time on a 2x4x4 torus.

Paper shape: data parallelism means only weight gradients are exchanged;
communication time per layer tracks the layer's parameter volume — the
deep conv5/conv4 stages dominate, conv1 and the 1x1 projections are tiny.
"""

from repro.analysis.report import layer_rows
from repro.harness import fig14
from repro.workload.parallelism import TrainingPhase

from bench_common import print_table, run_once


def test_fig14_resnet_layerwise_comm(benchmark):
    result = run_once(benchmark, lambda: fig14.run(num_iterations=2))
    report = result.report
    rows = [{
        "layer": r.name,
        "wg_comm_cycles": r.weight_grad_comm_cycles,
    } for r in layer_rows(report)]
    print_table("Fig 14: ResNet-50 layer-wise weight-grad comm (2 iters)",
                rows[:12] + rows[-6:])

    # Data parallelism: weight gradients only (Table I).
    for layer in report.layers:
        assert layer.comm_cycles[TrainingPhase.FORWARD] == 0.0
        assert layer.comm_cycles[TrainingPhase.INPUT_GRAD] == 0.0

    # Bytes exchanged track gradient volume exactly (conv5_1_b has 576x
    # the parameters of conv2_1_a); raw durations also rank the big layer
    # higher, though queueing behind other sets compresses the spread.
    by_name = {r["layer"]: r["wg_comm_cycles"] for r in rows}
    bytes_by_name = {
        layer.name: layer.comm_bytes[TrainingPhase.WEIGHT_GRAD]
        for layer in report.layers
    }
    assert bytes_by_name["conv5_1_b"] == 576 * bytes_by_name["conv2_1_a"]
    assert by_name["conv5_1_b"] > 2 * by_name["conv2_1_a"]
    assert all(r["wg_comm_cycles"] > 0 for r in rows)
