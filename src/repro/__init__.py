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
#: for one, only when a run names it.
_EXPORTS = {
    **dict.fromkeys(("ChunkExecution", "CollectiveContext", "CollectiveOp", "PhaseSpec",
                     "build_phase_plan"), "repro.collectives"),
    **dict.fromkeys(("ConvSpec", "GemmShape", "LinearSpec", "SystolicArrayModel"),
                    "repro.compute"),
    **dict.fromkeys(("AllToAllShape", "Clock", "CollectiveAlgorithm", "ComputeConfig",
                     "LinkConfig", "NetworkConfig", "SchedulingPolicy", "SimulationConfig",
                     "SystemConfig", "TopologyKind", "TorusShape", "paper_network_config",
                     "paper_simulation_config", "paper_system_config",
                     "symmetric_network_config"), "repro.config"),
    "Dimension": "repro.dims",
    **dict.fromkeys(("CollectiveError", "ConfigError", "NetworkError", "ReproError",
                     "SchedulerError", "SimulationError", "TopologyError", "WorkloadError"),
                    "repro.errors"),
    "EventQueue": "repro.events",
    **dict.fromkeys(("dlrm", "mlp", "resnet50", "transformer"), "repro.models"),
    "FastBackend": "repro.network",
    "DetailedBackend": "repro.network.detailed",
    **dict.fromkeys(("CollectiveSet", "System"), "repro.system"),
    **dict.fromkeys(("LogicalTopology", "build_alltoall_topology", "build_torus_topology"),
                    "repro.topology"),
    **dict.fromkeys(("DATA_PARALLEL", "MODEL_PARALLEL", "CommSpec", "DNNModel", "LayerSpec",
                     "ParallelismStrategy", "TrainingLoop", "TrainingPhase", "TrainingReport",
                     "hybrid"), "repro.workload"),
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
