"""Fig. 13 — Transformer layer-wise raw communication time.

Paper shape: the six encoder layers show near-uniform communication time
(structurally identical, with strict hybrid-parallel dependencies); the
embedding layer has none.
"""

from repro.analysis.report import layer_rows
from repro.harness import fig13

from bench_common import print_table, run_once


def test_fig13_transformer_layerwise(benchmark):
    result = run_once(benchmark, lambda: fig13.run(num_iterations=2))
    report = result.report
    rows = [{
        "layer": r.name,
        "fwd_comm": r.forward_comm_cycles,
        "ig_comm": r.input_grad_comm_cycles,
        "wg_comm": r.weight_grad_comm_cycles,
        "total_comm": r.total_comm_cycles,
    } for r in layer_rows(report)]
    print_table("Fig 13: Transformer layer-wise comm time (2 iterations)", rows)

    encoder_rows = [r for r in rows if r["layer"].startswith("encoder")]
    times = [r["total_comm"] for r in encoder_rows]
    spread = (max(times) - min(times)) / max(times)
    assert spread < 0.25, "encoder layers must have near-uniform comm time"

    embedding = next(r for r in rows if r["layer"] == "embedding")
    assert embedding["total_comm"] == 0.0, "embedding communicates nothing"

    # Hybrid parallelism communicates in all three phases (Table I).
    assert any(r["fwd_comm"] > 0 for r in encoder_rows)
    assert any(r["ig_comm"] > 0 for r in encoder_rows)
    assert any(r["wg_comm"] > 0 for r in encoder_rows)
