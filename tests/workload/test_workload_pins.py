"""Bit-identity pins of training and pipeline runs.

Each case pins a run's report to ``float.hex`` values together with the
event queue's ``events_processed`` and ``events_simulated``, so any change
to the order in which the workload layer issues compute, collectives and
point-to-point transfers, or to how it accounts their cycles, shows up
here.  Training runs pin the total, every iteration end and the totals of
per-layer compute, communication and exposed cycles literally, and the
full per-layer rows (compute, comm, bytes and exposed cycles per phase)
through a SHA-256 digest of their ``float.hex`` strings.  Pipeline runs
pin the total, the summed transfer time and every stage's busy cycles,
task counts and activation-stash peak.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import (
    CollectiveAlgorithm,
    SchedulingPolicy,
    SimulationConfig,
    SystemConfig,
    TorusShape,
)
from repro.config.presets import paper_network_config
from repro.config.units import KB, MB
from repro.harness.runners import run_training, torus_platform
from repro.models.dlrm import dlrm
from repro.models.resnet50 import resnet50
from repro.models.transformer import transformer
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology
from repro.workload.layer import CommSpec, LayerSpec
from repro.workload.model import DNNModel
from repro.workload.parallelism import MODEL_PARALLEL
from repro.workload.pipeline import PipelineSchedule, PipelineStage, PipelineTrainingLoop


def _hex(value: float) -> str:
    return float(value).hex()


def _training_fingerprint(report, system) -> dict:
    rows = [
        (layer.name,
         [_hex(v) for v in layer.compute_cycles.values()],
         [_hex(v) for v in layer.comm_cycles.values()],
         [_hex(v) for v in layer.comm_bytes.values()],
         _hex(layer.exposed_cycles))
        for layer in report.layers
    ]
    return {
        "cycles": _hex(report.total_cycles),
        "iteration_ends": [_hex(t) for t in report.iteration_ends],
        "compute": _hex(report.total_compute_cycles),
        "comm": _hex(report.total_comm_cycles),
        "exposed": _hex(report.total_exposed_cycles),
        "layers": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        "events": [system.events.events_processed, system.events.events_simulated],
    }


def _platform(shape, policy, compute_scale=1.0):
    return torus_platform(TorusShape(*shape), algorithm=CollectiveAlgorithm.ENHANCED,
                          scheduling_policy=policy, preferred_set_splits=16,
                          compute_scale=compute_scale)


def _resnet(policy):
    """Compute four times faster than Table IV's, so that weight-gradient
    all-reduces are exposed both in the second forward pass and at the end."""
    platform = _platform((2, 4, 4), policy, compute_scale=4.0)
    return resnet50(compute=platform.config.compute, minibatch=32), platform, 2


def _transformer():
    platform = _platform((2, 4, 4), SchedulingPolicy.LIFO)
    model = transformer(compute=platform.config.compute, model_parallel_degree=4)
    return model, platform, 2


def _dlrm():
    platform = _platform((2, 4, 4), SchedulingPolicy.LIFO)
    return dlrm(compute=platform.config.compute), platform, 1


def _model_parallel_mlp():
    """Four linear layers split across all NPUs: every layer exchanges
    activations forward and input gradients backward, both blocking."""
    platform = _platform((2, 2, 2), SchedulingPolicy.LIFO)
    layers = tuple(
        LayerSpec(
            name=f"fc{i}",
            forward_cycles=40_000.0 + 7_000.0 * i,
            input_grad_cycles=35_000.0 + 5_000.0 * i,
            weight_grad_cycles=30_000.0 + 3_000.0 * i,
            forward_comm=CommSpec(CollectiveOp.ALL_GATHER, (64 + 32 * i) * KB),
            input_grad_comm=CommSpec(CollectiveOp.REDUCE_SCATTER, (128 - 16 * i) * KB),
        )
        for i in range(4)
    )
    return DNNModel("mp-mlp", layers, MODEL_PARALLEL, minibatch=32), platform, 2


TRAINING = {
    "resnet50-2x4x4-fifo-2iter": lambda: _resnet(SchedulingPolicy.FIFO),
    "resnet50-2x4x4-lifo-2iter": lambda: _resnet(SchedulingPolicy.LIFO),
    "transformer-hybrid-2x4x4-2iter": _transformer,
    "dlrm-2x4x4": _dlrm,
    "mp-mlp-2x2x2-2iter": _model_parallel_mlp,
}

TRAINING_PINS: dict[str, dict] = {
    "dlrm-2x4x4": {
        "cycles": "0x1.c37ebddf6a7d6p+18",
        "iteration_ends": ["0x1.5f4153a8f2a9dp+18"],
        "compute": "0x1.c93facf13579cp+15",
        "comm": "0x1.bdfc3da8cd79ap+19",
        "exposed": "0x1.8a56c84143ce3p+18",
        "layers": "7eb3a344bd9f34bb26971106af52d05d132cf329d481ab6af102c7ebca49d4fe",
        "events": [1244, 1244],
    },
    "mp-mlp-2x2x2-2iter": {
        "cycles": "0x1.fcca69310572dp+19",
        "iteration_ends": ["0x1.fcca69310572bp+18", "0x1.fcca69310572dp+19"],
        "compute": "0x1.f20c000000000p+19",
        "comm": "0x1.57cd2620ae598p+14",
        "exposed": "0x1.57cd2620ae598p+14",
        "layers": "b0e8a00754f59f2936922fea8b3d0d0f6157af196af3a5a9ad283bfaaefa33b6",
        "events": [1560, 1560],
    },
    "resnet50-2x4x4-fifo-2iter": {
        "cycles": "0x1.9f885f55302d9p+21",
        "iteration_ends": ["0x1.dac1406d3a068p+19", "0x1.46747fc5e692ep+21"],
        "compute": "0x1.dac1406d3a06ep+20",
        "comm": "0x1.6b1d985435300p+26",
        "exposed": "0x1.644f7e3d26545p+20",
        "layers": "089a3c97d0d6920716c19caddf34bde540eba200bade074f1900366a2a5d4575",
        "events": [48708, 48708],
    },
    "resnet50-2x4x4-lifo-2iter": {
        "cycles": "0x1.6e495e6739226p+21",
        "iteration_ends": ["0x1.dac1406d3a068p+19", "0x1.1a5090e2d44e4p+21"],
        "compute": "0x1.dac1406d3a06ep+20",
        "comm": "0x1.7737307cd7460p+25",
        "exposed": "0x1.01d17c61383f1p+20",
        "layers": "143b697e6770a0112b618d38ba41538767cce0f2527df3677d979fa4eeb14ebd",
        "events": [48708, 48708],
    },
    "transformer-hybrid-2x4x4-2iter": {
        "cycles": "0x1.558cdad4e5c74p+26",
        "iteration_ends": ["0x1.558cdad4e5c76p+25", "0x1.558cdad4e5c74p+26"],
        "compute": "0x1.bca78e62fc963p+25",
        "comm": "0x1.06d98cc415c58p+25",
        "exposed": "0x1.dce44e8d9df0ap+24",
        "layers": "5b8b1ee38c6429a08eb596e0e30a874b4c884f644380a4fe5c38ddf809bcb4a3",
        "events": [7472, 7472],
    },
}


@pytest.mark.parametrize("case", sorted(TRAINING))
def test_training_run_is_pinned(case):
    model, platform, iterations = TRAINING[case]()
    report, system = run_training(model, platform, num_iterations=iterations)
    assert _training_fingerprint(report, system) == TRAINING_PINS[case]


# -- pipeline -------------------------------------------------------------------

#: Four non-uniform stages spread over a 2x4x2 torus: the second stage is
#: the slowest, activations shrink towards the last stage.
STAGES = (
    PipelineStage(0, 0, 40_000.0, 90_000.0, 384 * KB),
    PipelineStage(1, 5, 70_000.0, 130_000.0, 256 * KB),
    PipelineStage(2, 10, 30_000.0, 60_000.0, 1 * MB),
    PipelineStage(3, 15, 55_000.0, 80_000.0, 64 * KB),
)


def _pipeline_fingerprint(report, system) -> dict:
    return {
        "cycles": _hex(report.total_cycles),
        "comm": _hex(report.comm_cycles),
        "stages": [[_hex(s.busy_cycles), s.forward_tasks, s.backward_tasks,
                    s.peak_stashed_activations] for s in report.stages],
        "events": [system.events.events_processed, system.events.events_simulated],
    }


PIPELINE_PINS: dict[str, dict] = {
    "gpipe-1iter": {
        "cycles": "0x1.79219882b930ep+20",
        "comm": "0x1.3bca572620ae2p+20",
        "stages": [
            ["0x1.7cdc000000000p+19", 6, 6, 6],
            ["0x1.24f8000000000p+20", 6, 6, 6],
            ["0x1.07ac000000000p+19", 6, 6, 5],
            ["0x1.8b82000000000p+19", 6, 6, 3],
        ],
        "events": [192, 192],
    },
    "1f1b-1iter": {
        "cycles": "0x1.beacea3677d46p+20",
        "comm": "0x1.3a8b931057266p+20",
        "stages": [
            ["0x1.7cdc000000000p+19", 6, 6, 4],
            ["0x1.24f8000000000p+20", 6, 6, 4],
            ["0x1.07ac000000000p+19", 6, 6, 4],
            ["0x1.8b82000000000p+19", 6, 6, 1],
        ],
        "events": [192, 192],
    },
    "gpipe-2iter": {
        "cycles": "0x1.79219882b930dp+21",
        "comm": "0x1.3bca572620ad7p+21",
        "stages": [
            ["0x1.7cdc000000000p+20", 12, 12, 6],
            ["0x1.24f8000000000p+21", 12, 12, 6],
            ["0x1.07ac000000000p+20", 12, 12, 5],
            ["0x1.8b82000000000p+20", 12, 12, 3],
        ],
        "events": [384, 384],
    },
    "1f1b-2iter": {
        "cycles": "0x1.beacea3677d41p+21",
        "comm": "0x1.3a8b93105724dp+21",
        "stages": [
            ["0x1.7cdc000000000p+20", 12, 12, 4],
            ["0x1.24f8000000000p+21", 12, 12, 4],
            ["0x1.07ac000000000p+20", 12, 12, 4],
            ["0x1.8b82000000000p+20", 12, 12, 1],
        ],
        "events": [384, 384],
    },
}


@pytest.mark.parametrize("schedule", list(PipelineSchedule), ids=lambda s: s.value)
@pytest.mark.parametrize("iterations", [1, 2])
def test_pipeline_run_is_pinned(schedule, iterations):
    network = paper_network_config()
    system_config = SystemConfig(horizontal_rings=2)
    topology = build_torus_topology(TorusShape(2, 4, 2), network, system_config)
    system = System(topology, SimulationConfig(system=system_config, network=network))
    report = PipelineTrainingLoop(system, STAGES, num_microbatches=6,
                                  num_iterations=iterations,
                                  schedule=schedule).run(max_events=10_000_000)
    key = f"{schedule.value}-{iterations}iter"
    assert _pipeline_fingerprint(report, system) == PIPELINE_PINS[key]
