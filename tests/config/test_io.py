"""Tests for configuration serialization."""

import json

import pytest

from repro.config import (
    CollectiveAlgorithm,
    SchedulingPolicy,
    config_from_dict,
    config_to_dict,
    paper_simulation_config,
)
from repro.errors import ConfigError


class TestRoundTrip:
    def test_default_bundle(self):
        cfg = paper_simulation_config()
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_non_default_values_survive(self):
        cfg = paper_simulation_config(
            algorithm=CollectiveAlgorithm.ENHANCED,
            scheduling_policy=SchedulingPolicy.FIFO,
            compute_scale=4.0,
            local_bandwidth_scale=0.125,
            num_passes=5,
        )
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again == cfg
        assert again.system.algorithm is CollectiveAlgorithm.ENHANCED
        assert again.compute.compute_scale == 4.0

    def test_dict_is_json_primitive_only(self):
        d = config_to_dict(paper_simulation_config())
        json.dumps(d)  # must not raise
        assert d["system"]["algorithm"] == "baseline"


class TestErrors:
    def test_missing_fields(self):
        # Omitted sections and fields take their defaults; a link's
        # bandwidth, latency and packet size have none.
        with pytest.raises(ConfigError):
            config_from_dict({"network": {"local_link": {}}})

    def test_bad_enum_value(self):
        d = config_to_dict(paper_simulation_config())
        d["system"]["algorithm"] = "quantum"
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_validation_still_applies(self):
        d = config_to_dict(paper_simulation_config())
        d["num_passes"] = 0
        with pytest.raises(ConfigError):
            config_from_dict(d)
