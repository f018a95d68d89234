"""Configuration layer: Table III input parameters and Table IV presets."""

from repro.config.parameters import (
    AllToAllShape,
    CollectiveAlgorithm,
    ComputeConfig,
    DesignPoint,
    InjectionPolicy,
    LinkConfig,
    NetworkConfig,
    PacketRouting,
    SchedulingPolicy,
    SimulationConfig,
    SystemConfig,
    TopologyKind,
    TorusShape,
)
from repro.config.presets import (
    PAPER_LOCAL_LINK,
    PAPER_PACKAGE_LINK,
    paper_compute_config,
    paper_network_config,
    paper_simulation_config,
    paper_system_config,
    symmetric_network_config,
)
from repro.config.io import config_from_dict, config_to_dict
from repro.config.units import DEFAULT_CLOCK, GB, KB, MB, Clock, format_bytes

__all__ = [
    "AllToAllShape",
    "Clock",
    "CollectiveAlgorithm",
    "ComputeConfig",
    "DEFAULT_CLOCK",
    "DesignPoint",
    "GB",
    "InjectionPolicy",
    "KB",
    "LinkConfig",
    "MB",
    "NetworkConfig",
    "PacketRouting",
    "PAPER_LOCAL_LINK",
    "PAPER_PACKAGE_LINK",
    "SchedulingPolicy",
    "SimulationConfig",
    "SystemConfig",
    "TopologyKind",
    "TorusShape",
    "config_from_dict",
    "config_to_dict",
    "format_bytes",
    "paper_compute_config",
    "paper_network_config",
    "paper_simulation_config",
    "paper_system_config",
    "symmetric_network_config",
]
