"""Configuration serialization: SimulationConfig <-> JSON.

Lets an experiment pin its exact parameter set next to its results, and
re-run it later: the reproducibility leg of the harness.
"""

from __future__ import annotations

import json
from typing import Any

from repro.config.fields import build, to_raw
from repro.config.parameters import SimulationConfig
from repro.errors import ConfigError


def config_to_dict(config: SimulationConfig) -> dict[str, Any]:
    """A JSON-ready dictionary of the full parameter bundle."""
    return to_raw(config)


def config_to_json(config: SimulationConfig, indent: int = 2) -> str:
    return json.dumps(config_to_dict(config), indent=indent)


def config_from_dict(data: dict[str, Any]) -> SimulationConfig:
    """Rebuild a SimulationConfig; omitted fields take their defaults.
    Raises ConfigError naming every field the field tables reject."""
    return build(SimulationConfig, data)


def config_from_json(text: str) -> SimulationConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(config: SimulationConfig, path) -> None:
    with open(path, "w") as f:
        f.write(config_to_json(config))


def load_config(path) -> SimulationConfig:
    with open(path) as f:
        return config_from_json(f.read())
