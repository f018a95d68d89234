"""Configuration serialization: SimulationConfig <-> JSON-ready dicts."""

from __future__ import annotations

from typing import Any

from repro.config.fields import build, to_raw
from repro.config.parameters import SimulationConfig


def config_to_dict(config: SimulationConfig) -> dict[str, Any]:
    """A JSON-ready dictionary of the full parameter bundle."""
    return to_raw(config)


def config_from_dict(data: dict[str, Any]) -> SimulationConfig:
    """Rebuild a SimulationConfig; omitted fields take their defaults.
    Raises ConfigError naming every field the field tables reject."""
    return build(SimulationConfig, data)
