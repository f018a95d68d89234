"""repro — a pure-Python reproduction of ASTRA-SIM (ISPASS 2020).

ASTRA-SIM simulates distributed DNN training over hierarchical scale-up
fabrics: a workload layer (training loop + parallelism strategy), a
system layer (topology-aware multi-phase collectives + chunk scheduler),
and a network layer (two backends: a fast analytical link-level model and
a detailed flit/credit/VC model).

Quickstart::

    from repro import (
        CollectiveAlgorithm, System, TorusShape, TrainingLoop,
        build_torus_topology, paper_simulation_config, resnet50,
    )

    config = paper_simulation_config(algorithm=CollectiveAlgorithm.ENHANCED)
    topology = build_torus_topology(TorusShape(2, 4, 4), config.network,
                                    config.system)
    system = System(topology, config)
    model = resnet50(compute=config.compute)
    report = TrainingLoop(system, model, num_iterations=2).run()
    print(report.exposed_comm_ratio)
"""

from importlib import import_module
from typing import Any

#: Public name -> the module that defines it.  Nothing is imported until a
#: name is first used (PEP 562), so ``import repro`` stays cheap and each
#: command loads only the layers it runs: the flit-level ``DetailedBackend``,
#: for one, only when a run names it.  The targets are defining modules, not
#: packages: a package ``__init__`` imports none of its modules.
_EXPORTS = {
    "CollectiveContext": "repro.collectives.context",
    "ChunkExecution": "repro.collectives.hierarchical",
    **dict.fromkeys(("CollectiveOp", "PhaseSpec", "build_phase_plan"), "repro.collectives.types"),
    **dict.fromkeys(("ConvSpec", "GemmShape", "LinearSpec"), "repro.compute.gemm"),
    "SystolicArrayModel": "repro.compute.systolic",
    **dict.fromkeys(("AllToAllShape", "CollectiveAlgorithm", "ComputeConfig", "LinkConfig",
                     "NetworkConfig", "SchedulingPolicy", "SimulationConfig", "SystemConfig",
                     "TopologyKind", "TorusShape"), "repro.config.parameters"),
    **dict.fromkeys(("paper_network_config", "paper_simulation_config", "paper_system_config",
                     "symmetric_network_config"), "repro.config.presets"),
    "Clock": "repro.config.units",
    "Dimension": "repro.dims",
    **dict.fromkeys(("CollectiveError", "ConfigError", "NetworkError", "ReproError",
                     "SchedulerError", "SimulationError", "TopologyError", "WorkloadError"),
                    "repro.errors"),
    "EventQueue": "repro.events.engine",
    **{name: f"repro.models.{name}" for name in ("dlrm", "mlp", "resnet50", "transformer")},
    "DetailedBackend": "repro.network.detailed.backend",
    "FastBackend": "repro.network.fast_backend",
    "CollectiveSet": "repro.system.collective_set",
    "System": "repro.system.sys_layer",
    **dict.fromkeys(("LogicalTopology", "build_alltoall_topology", "build_torus_topology"),
                    "repro.topology.logical"),
    **dict.fromkeys(("CommSpec", "LayerSpec"), "repro.workload.layer"),
    "DNNModel": "repro.workload.model",
    **dict.fromkeys(("DATA_PARALLEL", "MODEL_PARALLEL", "ParallelismStrategy", "TrainingPhase",
                     "hybrid"), "repro.workload.parallelism"),
    **dict.fromkeys(("TrainingLoop", "TrainingReport"), "repro.workload.training_loop"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__version__ = "1.0.0"
