"""Table I — communication pattern per parallelization strategy.

Runs the same synthetic model under data, model and hybrid parallelism
and verifies which training phases generate traffic: data parallel
exchanges weight gradients only; model parallel exchanges activations and
input gradients only; hybrid exchanges in all three phases.
"""

from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape
from repro.dims import Dimension
from repro.harness.runners import run_training, torus_platform
from repro.workload.layer import CommSpec, LayerSpec
from repro.workload.model import DNNModel
from repro.workload.parallelism import DATA_PARALLEL, MODEL_PARALLEL, TrainingPhase, hybrid

from bench_common import print_table, run_once

HYBRID = hybrid(data_dims=(Dimension.LOCAL,),
                model_dims=(Dimension.VERTICAL, Dimension.HORIZONTAL))


def make_model(strategy):
    layers = tuple(
        LayerSpec(
            name=f"layer{i}",
            forward_cycles=10_000.0,
            input_grad_cycles=10_000.0,
            weight_grad_cycles=10_000.0,
            forward_comm=CommSpec(CollectiveOp.ALL_GATHER, 1 << 20),
            input_grad_comm=CommSpec(CollectiveOp.ALL_REDUCE, 1 << 20),
            weight_grad_comm=CommSpec(CollectiveOp.ALL_REDUCE, 1 << 20),
        )
        for i in range(4)
    )
    return DNNModel("table1", layers, strategy)


def run_all():
    results = {}
    for name, strategy in (("data", DATA_PARALLEL),
                           ("model", MODEL_PARALLEL),
                           ("hybrid", HYBRID)):
        platform = torus_platform(TorusShape(2, 2, 2))
        report, _ = run_training(make_model(strategy), platform,
                                 num_iterations=1)
        totals = {phase: sum(l.comm_bytes[phase] for l in report.layers)
                  for phase in TrainingPhase}
        results[name] = totals
    return results


def test_table1_parallelism_comm_matrix(benchmark):
    results = run_once(benchmark, run_all)
    rows = [{
        "parallelism": name,
        "activations(fwd)": totals[TrainingPhase.FORWARD],
        "weight_grads": totals[TrainingPhase.WEIGHT_GRAD],
        "input_grads": totals[TrainingPhase.INPUT_GRAD],
    } for name, totals in results.items()]
    print_table("Table I: bytes exchanged per training phase", rows)

    data, model, hyb = results["data"], results["model"], results["hybrid"]
    # Row 1: data parallelism -> weight gradients only.
    assert data[TrainingPhase.FORWARD] == 0
    assert data[TrainingPhase.WEIGHT_GRAD] > 0
    assert data[TrainingPhase.INPUT_GRAD] == 0
    # Row 2: model parallelism -> activations + input gradients.
    assert model[TrainingPhase.FORWARD] > 0
    assert model[TrainingPhase.WEIGHT_GRAD] == 0
    assert model[TrainingPhase.INPUT_GRAD] > 0
    # Row 3: hybrid -> partially everything.
    assert all(hyb[phase] > 0 for phase in TrainingPhase)
