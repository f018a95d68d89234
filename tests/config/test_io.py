"""Tests for configuration serialization through the field tables
(:func:`repro.config.fields.to_raw` and :func:`~repro.config.fields.build`)."""

import json

import pytest

from repro.config import (
    CollectiveAlgorithm,
    SchedulingPolicy,
    SimulationConfig,
    paper_simulation_config,
)
from repro.config.fields import build, to_raw
from repro.errors import ConfigError


class TestRoundTrip:
    def test_default_bundle(self):
        cfg = paper_simulation_config()
        assert build(SimulationConfig, json.loads(json.dumps(to_raw(cfg)))) == cfg

    def test_non_default_values_survive(self):
        cfg = paper_simulation_config(
            algorithm=CollectiveAlgorithm.ENHANCED,
            scheduling_policy=SchedulingPolicy.FIFO,
            compute_scale=4.0,
            local_bandwidth_scale=0.125,
        )
        again = build(SimulationConfig, json.loads(json.dumps(to_raw(cfg))))
        assert again == cfg
        assert again.system.algorithm is CollectiveAlgorithm.ENHANCED
        assert again.compute.compute_scale == 4.0

    def test_dict_is_json_primitive_only(self):
        d = to_raw(paper_simulation_config())
        json.dumps(d)  # must not raise
        assert d["system"]["algorithm"] == "baseline"


class TestErrors:
    def test_missing_fields(self):
        # Omitted sections and fields take their defaults; a link's
        # bandwidth, latency and packet size have none.
        with pytest.raises(ConfigError):
            build(SimulationConfig, {"network": {"local_link": {}}})

    def test_bad_enum_value(self):
        d = to_raw(paper_simulation_config())
        d["system"]["algorithm"] = "quantum"
        with pytest.raises(ConfigError):
            build(SimulationConfig, d)

    def test_validation_still_applies(self):
        d = to_raw(paper_simulation_config())
        d["system"]["preferred_set_splits"] = 0
        with pytest.raises(ConfigError, match=r"system\.preferred_set_splits: must be >= 1") as err:
            build(SimulationConfig, d)
        assert "unknown parameter" not in str(err.value)
