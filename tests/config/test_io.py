"""Tests for configuration serialization."""

import pytest

from repro.config import (
    CollectiveAlgorithm,
    SchedulingPolicy,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    load_config,
    paper_simulation_config,
    save_config,
)
from repro.errors import ConfigError


class TestRoundTrip:
    def test_default_bundle(self):
        cfg = paper_simulation_config()
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_non_default_values_survive(self):
        cfg = paper_simulation_config(
            algorithm=CollectiveAlgorithm.ENHANCED,
            scheduling_policy=SchedulingPolicy.FIFO,
            compute_scale=4.0,
            local_bandwidth_scale=0.125,
            num_passes=5,
        )
        again = config_from_json(config_to_json(cfg))
        assert again == cfg
        assert again.system.algorithm is CollectiveAlgorithm.ENHANCED
        assert again.compute.compute_scale == 4.0

    def test_dict_is_json_primitive_only(self):
        import json

        d = config_to_dict(paper_simulation_config())
        json.dumps(d)  # must not raise
        assert d["system"]["algorithm"] == "baseline"

    def test_file_round_trip(self, tmp_path):
        cfg = paper_simulation_config(num_passes=3)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            config_from_json("{not json")

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
