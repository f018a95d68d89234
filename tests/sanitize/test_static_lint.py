"""Tests for the static lint pass (repro.sanitize.static_lint)."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config.fields import field_errors, to_raw
from repro.config.parameters import (
    AllToAllShape,
    NetworkConfig,
    SimulationConfig,
    TopologyKind,
    TorusShape,
    check_arity,
)
from repro.config.presets import paper_simulation_config
from repro.errors import ConfigError
from repro.network.fault_schedule import FaultSchedule
from repro.parallel.supervisor import SupervisionPolicy
from repro.sanitize.findings import Finding, LintReport, Severity, reports_to_json
from repro.sanitize.static_lint import (
    lint_config,
    lint_fault_schedule,
    lint_platform,
    lint_presets,
    lint_run_spec,
    lint_spec_file,
)
from repro.search.space import SearchSpace
from repro.service.schema import parse_payload

ROOT = Path(__file__).resolve().parents[2]
BADCONFIGS = ROOT / "tests" / "data" / "badconfigs"


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
    """The field-table walk over a whole raw SimulationConfig document."""

    def test_roundtrip_dict_is_clean(self):
        assert field_errors(SimulationConfig, to_raw(paper_simulation_config())) == []

    def test_unknown_parameter_with_suggestion(self):
        data = to_raw(paper_simulation_config())
        data["network"]["local_link"]["bandwith_gbps"] = 100.0
        del data["network"]["local_link"]["bandwidth_gbps"]
        errors = field_errors(SimulationConfig, data)
        unknown = [m for _p, code, m in errors if code == "unknown-parameter"]
        assert unknown and "bandwidth_gbps" in unknown[0]

    def test_out_of_range_gives_parameter_path(self):
        data = to_raw(paper_simulation_config())
        data["network"]["package_link"]["efficiency"] = 1.5
        assert [(p, c) for p, c, _m in field_errors(SimulationConfig, data)] == [
            ("network.package_link.efficiency", "out-of-range")]


class TestTopologyLint:
    def test_good_torus(self):
        from repro.harness.runners import torus_platform

        assert lint_platform(torus_platform(TorusShape(2, 4, 4))).ok()

    def test_alltoall_structure_clean(self):
        from repro.harness.runners import alltoall_platform

        assert lint_platform(alltoall_platform(AllToAllShape(4, 16))).ok()

    def test_shape_arity(self):
        with pytest.raises(ConfigError, match="3 dimensions") as excinfo:
            check_arity(TopologyKind.TORUS, (4, 4))
        assert excinfo.value.code == "bad-shape"


def degrade(**fields):
    return {"events": [{"time": 1000, "action": "link_degrade", "link": [0, 1],
                        **fields}]}


class TestFaultLint:
    """Degradation factors of a fault schedule's ``link_degrade`` events."""

    def test_in_range_is_clean(self):
        assert lint_fault_schedule(degrade(bandwidth_factor=0.5,
                                           extra_latency_cycles=100)) == []

    def test_factor_above_one(self):
        findings = lint_fault_schedule(degrade(bandwidth_factor=1.5))
        assert [(f.code, f.param) for f in findings] == [
            ("out-of-range", "fault_schedule.events[0].bandwidth_factor")]

    def test_factor_zero(self):
        findings = lint_fault_schedule(degrade(bandwidth_factor=0.0))
        assert "out-of-range" in error_codes(findings)

    def test_negative_latency(self):
        findings = lint_fault_schedule(degrade(extra_latency_cycles=-5))
        assert [(f.code, f.param) for f in findings] == [
            ("out-of-range", "fault_schedule.events[0].extra_latency_cycles")]

    def test_bad_kind(self):
        findings = lint_fault_schedule({"events": [{"time": 1, "action": "cosmic"}]})
        assert [(f.code, f.param) for f in findings] == [
            ("bad-enum-value", "fault_schedule.events[0].action")]
        assert "link_degrade" in findings[0].message


class TestRunSpecLint:
    def test_full_good_spec(self):
        """One good document of each kind a command reads lints clean."""
        for doc in (degrade(bandwidth_factor=0.5),
                    json.loads((ROOT / "examples" / "configs" / "search_fig09.json").read_text()),
                    {"op": "allgather", "size_mb": 1.0, "topology": "AllToAll"}):
            report = lint_run_spec(doc, source="spec")
            assert report.ok(strict=True), report.format()

    def test_defaults_used_without_config(self):
        """A payload naming no platform field builds the CLI defaults'
        platform, which lints clean."""
        assert lint_run_spec({"op": "allreduce", "size_mb": 1.0}).findings == []

    def test_non_dict_rejected(self):
        report = lint_run_spec([1, 2, 3])
        assert "malformed-spec" in error_codes(report.findings)

    def test_run_spec_is_one_malformed_spec_error(self):
        """The retired run-spec format (config/topology/faults sections)
        is no document a command reads."""
        report = lint_run_spec({
            "config": to_raw(paper_simulation_config()),
            "topology": {"kind": "Torus", "shape": "2x2x2"},
            "expected_npus": 8,
            "faults": {"count": 1, "bandwidth_factor": 0.5, "kind": "package"},
        })
        assert [(f.severity, f.code) for f in report.findings] == [
            (Severity.ERROR, "malformed-spec")]
        assert "fault schedule" in report.findings[0].message


class TestSupervisionLint:
    """``SupervisionPolicy``'s field table: the rules the policy checks
    at construction, which the supervision flags of ``search`` and
    ``serve`` go through."""

    def errors(self, data):
        return field_errors(SupervisionPolicy, data, "supervision")

    def test_good_section_in_run_spec(self):
        assert self.errors({"point_timeout_s": 30.0, "max_retries": 2,
                            "on_poison": "quarantine"}) == []

    def test_unknown_key_suggests_closest(self):
        [(_path, code, message)] = self.errors({"point_timeout": 30.0})
        assert code == "unknown-parameter" and "point_timeout_s" in message

    def test_range_rules(self):
        errors = self.errors({"point_timeout_s": -1.0, "max_retries": -2,
                              "backoff_factor": 0.5})
        assert [code for _p, code, _m in errors] == ["out-of-range"] * 3

    def test_on_poison_enum(self):
        [(_path, code, message)] = self.errors({"on_poison": "explode"})
        assert code == "bad-enum-value" and "quarantine, fail" in message

    def test_non_dict_section(self):
        assert [(p, c) for p, c, _m in self.errors(["timeout", 30])] == [
            ("supervision", "bad-type")]

    def test_policy_construction_catches_the_rest(self):
        # A value of the wrong type is a typed error at its own path,
        # from the same table the policy checks at construction.
        assert [(p, c) for p, c, _m in self.errors({"point_timeout_s": "forever"})] == [
            ("supervision.point_timeout_s", "bad-type")]
        with pytest.raises(ConfigError, match="point_timeout_s"):
            SupervisionPolicy(point_timeout_s="forever")


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


def fixture_names():
    return sorted(path.stem for path in BADCONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", fixture_names())
def test_seeded_bad_configs_flag_errors(name):
    report = lint_spec_file(str(BADCONFIGS / f"{name}.json"))
    assert report.errors, f"{name} should produce at least one error"


#: Every shipped example document.
EXAMPLES = ["flaky_torus.json", "search_fig09.json"]


def test_shipped_examples_are_clean():
    shipped = ROOT / "examples" / "configs"
    assert sorted(path.name for path in shipped.glob("*.json")) == EXAMPLES
    for name in EXAMPLES:
        report = lint_spec_file(str(shipped / name))
        assert not report.errors, report.format()


def _read_schedule(path):
    FaultSchedule.from_file(path)


def _read_space(path):
    SearchSpace.from_dict(json.loads(Path(path).read_text()))


def _read_payload(path):
    parse_payload(json.loads(Path(path).read_text()))


#: The loader of the command that reads each shipped document.
READERS = {
    "examples/configs/flaky_torus.json": _read_schedule,
    "examples/configs/search_fig09.json": _read_space,
    "tests/data/badconfigs/bad_fault_event_types.json": _read_schedule,
    "tests/data/badconfigs/bad_fault_factor.json": _read_schedule,
    "tests/data/badconfigs/bad_fault_schedule_action.json": _read_schedule,
    "tests/data/badconfigs/bad_fault_schedule_link.json": _read_schedule,
    "tests/data/badconfigs/bad_field_types.json": _read_payload,
    "tests/data/badconfigs/bad_payload.json": _read_payload,
    "tests/data/badconfigs/bad_search_space_axis.json": _read_space,
    "tests/data/badconfigs/bad_search_space_bounds.json": _read_space,
    "tests/data/badconfigs/dimension_mismatch.json": _read_space,
}


def test_lint_flags_a_document_iff_its_loader_rejects_it():
    shipped = {str(path.relative_to(ROOT)) for pattern in (
        "examples/configs/*.json", "tests/data/badconfigs/*.json")
        for path in ROOT.glob(pattern)}
    assert shipped == set(READERS)
    for name, read in READERS.items():
        path = str(ROOT / name)
        try:
            read(path)
        except ConfigError:
            rejected = True
        else:
            rejected = False
        assert bool(lint_spec_file(path).errors) == rejected, name


def test_bad_field_types_give_one_bad_type_error_each():
    """Each wrongly typed value is one bad-type ERROR at its own path:
    a float ring count, a bool chunk count and numbers spelled as
    strings."""
    errors = [(f.code, f.param)
              for f in lint_spec_file(str(BADCONFIGS / "bad_field_types.json")).findings
              if f.severity is Severity.ERROR]
    assert sorted(errors) == [
        ("bad-type", "compute_scale"),
        ("bad-type", "local_rings"),
        ("bad-type", "preferred_set_splits"),
        ("bad-type", "size_mb"),
    ]
