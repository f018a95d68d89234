"""Tests for the static lint pass (repro.sanitize.static_lint)."""

import dataclasses

import pytest

from repro.config.io import config_to_dict
from repro.config.parameters import (
    AllToAllShape,
    NetworkConfig,
    TopologyKind,
    TorusShape,
)
from repro.config.presets import paper_simulation_config
from repro.sanitize import (
    Severity,
    lint_config,
    lint_presets,
    lint_run_spec,
    lint_topology,
)
from repro.sanitize.findings import Finding, LintReport, reports_to_json
from repro.sanitize.static_lint import (
    lint_config_dict,
    lint_faults,
    lint_supervision,
)


def codes(findings):
    return {f.code for f in findings}


def error_codes(findings):
    return {f.code for f in findings if f.severity is Severity.ERROR}


def with_link(network: NetworkConfig, which: str, **overrides) -> NetworkConfig:
    link = dataclasses.replace(getattr(network, which), **overrides)
    return dataclasses.replace(network, **{which: link})


class TestConfigLint:
    def test_paper_config_has_no_errors(self):
        findings = lint_config(paper_simulation_config())
        assert not error_codes(findings)

    def test_flit_packet_misalignment(self):
        config = paper_simulation_config()
        network = with_link(config.network, "package_link",
                            packet_size_bytes=300)
        config = dataclasses.replace(config, network=network)
        findings = lint_config(config)
        assert "flit-packet-misalignment" in error_codes(findings)

    def test_packet_smaller_than_flit(self):
        config = paper_simulation_config()
        network = with_link(config.network, "local_link", packet_size_bytes=64)
        config = dataclasses.replace(config, network=network)
        assert "flit-packet-misalignment" in error_codes(lint_config(config))

    def test_flit_width_not_byte_aligned(self):
        config = paper_simulation_config()
        network = dataclasses.replace(config.network, flit_width_bits=1001)
        config = dataclasses.replace(config, network=network)
        assert "flit-width-not-byte-aligned" in error_codes(lint_config(config))

    def test_inverted_bandwidth_hierarchy_warns(self):
        config = paper_simulation_config()
        network = with_link(config.network, "local_link", bandwidth_gbps=10.0)
        config = dataclasses.replace(config, network=network)
        findings = lint_config(config)
        assert "inverted-bandwidth-hierarchy" in codes(findings)
        assert "inverted-bandwidth-hierarchy" not in error_codes(findings)


class TestConfigDictLint:
    def test_roundtrip_dict_is_clean(self):
        data = config_to_dict(paper_simulation_config())
        config, findings = lint_config_dict(data)
        assert config is not None
        assert not error_codes(findings)

    def test_unknown_parameter_with_suggestion(self):
        data = config_to_dict(paper_simulation_config())
        data["network"]["local_link"]["bandwith_gbps"] = 100.0
        del data["network"]["local_link"]["bandwidth_gbps"]
        config, findings = lint_config_dict(data)
        assert config is None
        unknown = [f for f in findings if f.code == "unknown-parameter"]
        assert unknown and "bandwidth_gbps" in unknown[0].message

    def test_out_of_range_gives_parameter_path(self):
        data = config_to_dict(paper_simulation_config())
        data["network"]["package_link"]["efficiency"] = 1.5
        config, findings = lint_config_dict(data)
        assert config is None
        bad = [f for f in findings if f.code == "out-of-range"]
        assert bad and bad[0].param == "network.package_link.efficiency"


class TestTopologyLint:
    def test_good_torus(self):
        config = paper_simulation_config()
        findings = lint_topology(TopologyKind.TORUS, (2, 4, 4), config,
                                 expected_npus=32)
        assert not error_codes(findings)

    def test_dim_product_mismatch(self):
        config = paper_simulation_config()
        findings = lint_topology(TopologyKind.TORUS, (2, 4, 4), config,
                                 expected_npus=64)
        assert "dim-product-mismatch" in error_codes(findings)

    def test_shape_arity(self):
        config = paper_simulation_config()
        findings = lint_topology(TopologyKind.TORUS, (4, 4), config)
        assert "shape-arity" in error_codes(findings)

    def test_alltoall_structure_clean(self):
        config = paper_simulation_config()
        findings = lint_topology(TopologyKind.ALLTOALL, (4, 16), config,
                                 expected_npus=64)
        assert not error_codes(findings)

    def test_structural_lint_all_preset_fabrics(self):
        from repro.sanitize.static_lint import lint_fabric_structure
        from repro.topology.logical import (
            build_alltoall_topology,
            build_torus_topology,
        )

        config = paper_simulation_config()
        for topology in (
            build_torus_topology(TorusShape(2, 4, 4), config.network,
                                 config.system),
            build_torus_topology(TorusShape(1, 8, 1), config.network,
                                 config.system),
            build_alltoall_topology(AllToAllShape(4, 16), config.network,
                                    config.system),
        ):
            assert not error_codes(lint_fabric_structure(topology))


class TestFaultLint:
    def test_in_range_is_clean(self):
        findings = lint_faults({"count": 2, "bandwidth_factor": 0.5,
                                "kind": "package"})
        assert not findings

    def test_factor_above_one(self):
        findings = lint_faults({"bandwidth_factor": 1.5})
        assert "fault-factor-out-of-range" in error_codes(findings)

    def test_factor_zero(self):
        findings = lint_faults({"bandwidth_factor": 0.0})
        assert "fault-factor-out-of-range" in error_codes(findings)

    def test_negative_latency(self):
        findings = lint_faults({"extra_latency_cycles": -5})
        assert "fault-factor-out-of-range" in error_codes(findings)

    def test_count_exceeds_links(self):
        findings = lint_faults({"count": 999}, num_links=10)
        assert "fault-count-exceeds-links" in error_codes(findings)

    def test_bad_kind(self):
        findings = lint_faults({"kind": "cosmic"})
        assert "unknown-parameter" in error_codes(findings)


class TestRunSpecLint:
    def test_full_good_spec(self):
        spec = {
            "config": config_to_dict(paper_simulation_config()),
            "topology": {"kind": "Torus", "shape": "2x2x2"},
            "expected_npus": 8,
            "faults": {"count": 1, "bandwidth_factor": 0.5, "kind": "package"},
        }
        report = lint_run_spec(spec, source="spec")
        assert report.ok()
        assert not report.errors

    def test_bare_config_dict_accepted(self):
        report = lint_run_spec(config_to_dict(paper_simulation_config()))
        assert report.ok()

    def test_non_dict_rejected(self):
        report = lint_run_spec([1, 2, 3])
        assert "malformed-spec" in error_codes(report.findings)

    def test_defaults_used_without_config(self):
        report = lint_run_spec({
            "topology": {"kind": "AllToAll", "shape": "2x4"},
            "expected_npus": 8,
        })
        assert report.ok()


class TestSupervisionLint:
    def test_good_section_in_run_spec(self):
        report = lint_run_spec({
            "topology": {"kind": "Torus", "shape": "2x2x2"},
            "supervision": {"point_timeout_s": 30.0, "max_retries": 2,
                            "on_poison": "quarantine"},
        })
        assert report.ok()

    def test_unknown_key_suggests_closest(self):
        findings = lint_supervision({"point_timeout": 30.0})
        assert "unknown-parameter" in error_codes(findings)
        assert "point_timeout_s" in findings[0].message

    def test_range_rules(self):
        findings = lint_supervision({"point_timeout_s": -1.0,
                                     "max_retries": -2,
                                     "backoff_factor": 0.5})
        assert len([f for f in findings if f.code == "out-of-range"]) == 3

    def test_on_poison_enum(self):
        findings = lint_supervision({"on_poison": "explode"})
        assert error_codes(findings) == {"bad-enum-value"}
        assert "quarantine, fail" in findings[0].message

    def test_non_dict_section(self):
        findings = lint_supervision(["timeout", 30])
        assert "malformed-spec" in error_codes(findings)

    def test_policy_construction_catches_the_rest(self):
        # A value of the wrong type is a typed finding at its own path,
        # from the same table the policy checks at construction.
        findings = lint_supervision({"point_timeout_s": "forever"})
        assert [(f.code, f.param) for f in findings] == [
            ("bad-type", "supervision.point_timeout_s")]


class TestPresets:
    def test_all_shipped_presets_clean(self):
        reports = lint_presets()
        assert len(reports) >= 5
        for report in reports:
            assert report.ok(), report.format()


class TestFindings:
    def test_format_and_to_dict(self):
        finding = Finding(Severity.ERROR, "some-code", "a.b", "broken",
                          source="here")
        assert finding.format() == "here: error: [some-code] a.b: broken"
        assert finding.to_dict()["severity"] == "error"

    def test_report_strictness(self):
        report = LintReport(source="x")
        report.add(Severity.WARNING, "w", "p", "m")
        assert report.ok()
        assert not report.ok(strict=True)

    def test_reports_to_json_roundtrip(self):
        import json

        report = LintReport(source="x")
        report.add(Severity.ERROR, "e", "p", "m")
        parsed = json.loads(reports_to_json([report]))
        assert parsed[0]["errors"] == 1
        assert parsed[0]["findings"][0]["code"] == "e"


@pytest.mark.parametrize("name", [
    "dimension_mismatch", "flit_misalignment", "bad_fault_factor",
    "bad_fault_schedule_action", "bad_fault_schedule_link", "bad_field_types",
    "bad_payload", "bad_supervision", "bad_fault_event_types"])
def test_seeded_bad_configs_flag_errors(name):
    import os

    from repro.sanitize import lint_spec_file

    path = os.path.join(os.path.dirname(__file__), "..", "data",
                        "badconfigs", f"{name}.json")
    report = lint_spec_file(path)
    assert report.errors, f"{name} should produce at least one error"


def test_shipped_examples_are_clean():
    import glob
    import os

    from repro.sanitize import lint_spec_file

    pattern = os.path.join(os.path.dirname(__file__), "..", "..",
                           "examples", "configs", "*.json")
    paths = glob.glob(pattern)
    assert len(paths) >= 3
    for path in paths:
        report = lint_spec_file(path)
        assert not report.errors, report.format()


def test_bad_field_types_give_one_bad_type_error_each():
    """Each wrongly typed value is one bad-type ERROR at its own path —
    a float ring count used to crash the fabric build, a bool chunk
    count and a float array size used to pass, and a string bandwidth
    used to surface only as a config-wide error."""
    import os

    from repro.sanitize import lint_spec_file

    path = os.path.join(os.path.dirname(__file__), "..", "data",
                        "badconfigs", "bad_field_types.json")
    errors = [(f.code, f.param) for f in lint_spec_file(path).findings
              if f.severity is Severity.ERROR]
    assert sorted(errors) == [
        ("bad-type", "compute.array_rows"),
        ("bad-type", "network.local_link.bandwidth_gbps"),
        ("bad-type", "system.local_rings"),
        ("bad-type", "system.preferred_set_splits"),
    ]
