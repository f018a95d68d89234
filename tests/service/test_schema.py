"""SimulationPayload: the strict admission schema of astra-repro serve.

Every way a client can get a payload wrong must surface as a structured
PayloadError listing ALL the problems at once (not just the first), and
a valid payload must round-trip canonically and key identically to the
CLI platform it mirrors.
"""

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.fields import rules
from repro.config.parameters import (
    CollectiveAlgorithm,
    DesignPoint,
    SchedulingPolicy,
    TopologyKind,
)
from repro.config.units import MB
from repro.errors import ConfigError
from repro.parallel import collective_cache_key
from repro.service.schema import (
    MAX_PRIORITY,
    MAX_SIZE_MB,
    PAYLOAD_VERSION,
    PayloadError,
    SimulationPayload,
    build_payload_platform,
    lint_payload,
    parse_payload,
)

GOOD = {"op": "allreduce", "size_mb": 0.0625}


def test_payload_table_is_the_design_point_plus_op_size_and_priority():
    table = rules(SimulationPayload)
    assert list(table) == [*rules(DesignPoint), "op", "size_mb", "priority"]
    assert all(table[name] is rule for name, rule in rules(DesignPoint).items())


class TestValidPayloads:
    def test_minimal_payload_gets_cli_defaults(self):
        payload = parse_payload(GOOD)
        assert payload.op is CollectiveOp.ALL_REDUCE
        assert payload.size_bytes == 0.0625 * MB
        assert payload.topology is TopologyKind.TORUS
        assert payload.shape == (2, 4, 4)
        assert payload.algorithm is CollectiveAlgorithm.BASELINE
        assert payload.scheduling_policy is SchedulingPolicy.LIFO
        assert payload.priority == 0

    def test_canonical_round_trips(self):
        payload = parse_payload({**GOOD, "algorithm": "enhanced",
                                 "shape": "2x2x2", "priority": 3})
        again = parse_payload(payload.canonical())
        assert again == payload
        assert again.canonical() == payload.canonical()
        assert again.canonical()["schema"] == PAYLOAD_VERSION

    def test_shape_accepts_string_and_list(self):
        assert parse_payload({**GOOD, "shape": "2x2x2"}).shape == (2, 2, 2)
        assert parse_payload({**GOOD, "shape": [2, 2, 2]}).shape == (2, 2, 2)

    def test_alltoall_payload(self):
        payload = parse_payload({"op": "alltoall", "size_mb": 0.0625,
                                 "topology": "AllToAll", "shape": "2x4"})
        assert payload.platform_spec().name.startswith("alltoall")

    def test_content_key_matches_cache_key_of_spec(self):
        """The dedup/journal key IS the RunCache key of the built spec —
        one identity from admission to cache to journal."""
        payload = parse_payload(GOOD)
        expected = collective_cache_key(payload.platform_spec(), payload.op,
                                        payload.size_bytes)
        assert payload.content_key() == expected

    def test_priority_not_in_content_key(self):
        """Priority is queueing metadata, not simulation input: two
        payloads differing only in priority must coalesce."""
        low = parse_payload({**GOOD, "priority": 0})
        high = parse_payload({**GOOD, "priority": 9})
        assert low.content_key() == high.content_key()

    def test_alltoall_compute_scale_in_content_key(self):
        """An AllToAll payload's compute scale reaches its platform, so
        two scales never share a cache entry."""
        base = {"op": "allreduce", "size_mb": 0.0625, "topology": "AllToAll",
                "shape": "2x4"}
        assert (parse_payload(base).content_key()
                != parse_payload({**base, "compute_scale": 2}).content_key())

    def test_builder_is_picklable_and_rebuilds(self):
        import pickle

        payload = parse_payload(GOOD)
        canonical = payload.canonical()
        rebuilt = pickle.loads(pickle.dumps(
            (build_payload_platform, canonical)))
        spec = rebuilt[0](rebuilt[1])
        assert spec.name == payload.platform_spec().name


class TestRejection:
    def test_non_object_rejected(self):
        with pytest.raises(PayloadError):
            parse_payload(["not", "an", "object"])

    def test_missing_required_fields_all_reported(self):
        with pytest.raises(PayloadError) as excinfo:
            parse_payload({})
        fields = {e["field"] for e in excinfo.value.errors}
        assert {"op", "size_mb"} <= fields

    def test_unknown_key_rejected_with_typo_hint(self):
        with pytest.raises(PayloadError) as excinfo:
            parse_payload({**GOOD, "algoritm": "enhanced"})
        err = next(e for e in excinfo.value.errors
                   if e["field"] == "algoritm")
        assert err["code"] == "unknown-parameter"
        assert "algorithm" in err["message"]

    def test_all_errors_collected_not_just_first(self):
        with pytest.raises(PayloadError) as excinfo:
            parse_payload({"op": "bogus", "size_mb": -1, "priority": 99,
                           "compute_scale": 0})
        fields = {e["field"] for e in excinfo.value.errors}
        assert {"op", "size_mb", "priority", "compute_scale"} <= fields

    @pytest.mark.parametrize("field,value", [
        ("op", "nope"),
        ("topology", "Ring"),
        ("algorithm", "quantum"),
        ("scheduling_policy", "RANDOM"),
    ])
    def test_bad_enums_rejected(self, field, value):
        with pytest.raises(PayloadError) as excinfo:
            parse_payload({**GOOD, field: value})
        assert any(e["field"] == field and e["code"] == "bad-enum-value"
                   for e in excinfo.value.errors)

    @pytest.mark.parametrize("field,value", [
        ("size_mb", 0), ("size_mb", -4), ("size_mb", MAX_SIZE_MB * 2),
        ("size_mb", "eight"), ("size_mb", True),
        ("priority", -1), ("priority", MAX_PRIORITY + 1), ("priority", 1.5),
        ("local_rings", 0), ("preferred_set_splits", 0),
        ("compute_scale", -1.0), ("symmetric", "yes"),
        ("shape", "axbxc"), ("shape", "2x4"), ("shape", [0, 2, 2]),
        ("schema", PAYLOAD_VERSION + 1),
    ])
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(PayloadError) as excinfo:
            parse_payload({**GOOD, field: value})
        assert any(e["field"] == field for e in excinfo.value.errors)

    def test_torus_shape_arity_checked_against_topology(self):
        with pytest.raises(PayloadError):
            parse_payload({**GOOD, "topology": "AllToAll", "shape": "2x2x2"})

    def test_error_payload_is_structured(self):
        with pytest.raises(PayloadError) as excinfo:
            parse_payload({"op": "nope"})
        body = excinfo.value.to_dict()
        assert body["error"] == "invalid-payload"
        assert all({"field", "code", "message"} <= set(e)
                   for e in body["errors"])

    def test_payload_error_is_config_error(self):
        """Service rejections sit on the exit-code-2 class hierarchy."""
        assert issubclass(PayloadError, ConfigError)


class TestStaticLintRouting:
    def test_cross_parameter_lint_runs_at_admission(self):
        """A schema-valid payload whose built platform fails the static
        lint (flit/packet misalignment style errors) is still a 400."""
        findings = lint_payload({**GOOD, "shape": "2x2x2"}, source="t")
        assert findings == []  # a good payload lints clean

    def test_lint_run_spec_routes_payload_documents(self):
        from repro.sanitize.static_lint import lint_run_spec

        report = lint_run_spec({"op": "bogus", "size_mb": 1.0},
                               source="payload.json")
        assert report.findings
        assert any(f.param == "op" for f in report.findings)
        clean = lint_run_spec(dict(GOOD), source="payload.json")
        assert clean.findings == []

    def test_lint_cli_accepts_payload_file(self, tmp_path):
        import json

        from repro.cli import main

        good = tmp_path / "payload.json"
        good.write_text(json.dumps(GOOD))
        assert main(["lint", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"op": "bogus", "size_mb": -1}))
        assert main(["lint", str(bad)]) == 1
