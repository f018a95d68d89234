"""The field tables: one declaration per parameter, read by every validator.

For every field of every table, a value of the wrong type, one below
its range and (where the range is bounded above) one above it must be
rejected by the constructor or parser of that input.  Where a command
reads the input as a JSON document (fault schedules, search spaces,
service payloads), the linter must also give exactly one ERROR finding
at the field's own path.
"""

import copy
import dataclasses

import pytest

from repro.analytical.cost_models import CostTable
from repro.config.fields import Rule, build, check, field_errors, parse_shape, rules, to_raw
from repro.config.parameters import (
    ComputeConfig,
    DesignPoint,
    LinkConfig,
    NetworkConfig,
    SimulationConfig,
    SystemConfig,
    TransportConfig,
)
from repro.config.presets import PAPER_LOCAL_LINK, paper_network_config, paper_simulation_config
from repro.config.units import Clock
from repro.errors import ConfigError
from repro.network.fault_schedule import FaultEvent, FaultSchedule, ScheduleDocument
from repro.parallel.supervisor import SupervisionPolicy
from repro.sanitize import Severity, lint_fault_schedule, lint_search_space
from repro.search.space import Axes, Constraints, SearchSpace, SpaceDocument
from repro.service.schema import SimulationPayload, lint_payload, parse_payload


def wrong_type(rule: Rule):
    """A JSON value of the wrong type for ``rule`` (an int field gets a
    float, a number a string, a choice a value outside it)."""
    if rule.kind in ("axis", "list"):
        return "x"
    return {"int": 2.5, "number": "x", "bool": "yes", "text": 5, "choice": "bogus",
            "shape": 3.5, "section": "x"}[rule.kind]


def out_of_range(rule: Rule, defaults: dict):
    """Values just outside ``rule``'s range, below then above."""
    if rule.kind == "shape":
        return [[0] * (rule.arity or 3)]
    if rule.kind == "axis":
        return [[], *([v] for v in out_of_range(rule.item, defaults))]
    if rule.kind == "list":
        return [[v] for v in out_of_range(rule.item, defaults)]
    step = 1 if rule.kind == "int" else 0.5
    values = []
    low = rule.ge if rule.gt is None else rule.gt
    if isinstance(low, str):
        low = defaults[low]
    if low is not None:
        values.append(low if rule.gt is not None else low - step)
    if rule.le is not None:
        values.append(rule.le + step)
    return values


def bad_values(cls):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for name, rule in rules(cls).items():
        yield name, wrong_type(rule)
        if rule.kind in ("axis", "list"):
            yield name, [wrong_type(rule.item)]
        for value in out_of_range(rule, defaults):
            yield name, value


def with_value(doc: dict, path: str, value) -> dict:
    doc = copy.deepcopy(doc)
    *parents, leaf = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[leaf] = value
    return doc


def space_doc(path: str, value) -> dict:
    return with_value({"num_npus": 8, "axes": {}, "constraints": {}, "cost": {}},
                      path, value)


#: Each config table and a valid instance the constructor check starts
#: from.  No command reads these as documents, so they have no lint half.
CONFIG_TABLES = [
    (LinkConfig, PAPER_LOCAL_LINK),
    (NetworkConfig, paper_network_config()),
    (SystemConfig, SystemConfig()),
    (TransportConfig, TransportConfig()),
    (ComputeConfig, ComputeConfig()),
    (Clock, Clock()),
    (SimulationConfig, SimulationConfig()),
    (DesignPoint, DesignPoint()),
    (SupervisionPolicy, SupervisionPolicy()),
]

#: A valid fault event; any one field of the event table may be set on it.
GOOD_EVENT = {"time": 1, "action": "drop"}


def cases():
    """(path, lint, rejects) per bad value: the linter's findings for a
    document carrying it (``None`` for a table no command reads as a
    document), and the constructors or parsers that must refuse it."""
    for cls, instance in CONFIG_TABLES:
        for name, value in bad_values(cls):
            yield pytest.param(
                name, None,
                [lambda n=name, v=value, i=instance: dataclasses.replace(i, **{n: v})],
                id=f"{cls.__name__}.{name}={value!r}")
    for cls, prefix, doc in ((ScheduleDocument, "fault_schedule", {"events": []}),
                             (FaultEvent, "fault_schedule.events[0]", GOOD_EVENT)):
        for name, value in bad_values(cls):
            path = f"{prefix}.{name}"
            if rules(cls)[name].kind == "list" and isinstance(value, list):
                path += "[0]"
            bad = {**doc, name: value}
            if cls is FaultEvent:
                bad = {"events": [bad]}
            yield pytest.param(
                path, lambda d=bad: lint_fault_schedule(d),
                [lambda d=bad: FaultSchedule.from_dict(d)],
                id=f"{cls.__name__}.{name}={value!r}")
    for name, value in bad_values(SimulationPayload):
        good = {"op": "allreduce", "size_mb": 0.0625}
        yield pytest.param(
            name, lambda n=name, v=value: lint_payload({**good, n: v}),
            [lambda n=name, v=value: parse_payload({**good, n: v})],
            id=f"SimulationPayload.{name}={value!r}")
    for cls, prefix in ((SpaceDocument, ""), (Axes, "axes"), (Constraints, "constraints"),
                        (CostTable, "cost")):
        for name, value in bad_values(cls):
            path = f"{prefix}.{name}" if prefix else name
            extra = ([lambda n=name, v=value: CostTable(**{n: v})]
                     if cls is CostTable else [])
            yield pytest.param(
                path, lambda p=path, v=value: lint_search_space(space_doc(p, v)),
                [lambda p=path, v=value: SearchSpace.from_dict(space_doc(p, v)), *extra],
                id=f"{cls.__name__}.{name}={value!r}")


@pytest.mark.parametrize("path,lint,rejects", cases())
def test_bad_value_is_one_error_at_its_path_and_rejected(path, lint, rejects):
    if lint is not None:
        errors = [(f.code, f.param) for f in lint() if f.severity is Severity.ERROR]
        assert len(errors) == 1 and errors[0][1] == path, errors
    for reject in rejects:
        with pytest.raises(ConfigError):
            reject()


def test_every_table_is_covered():
    covered = {case.id.split(".")[0] for case in cases()}
    assert covered == {"LinkConfig", "NetworkConfig", "SystemConfig", "TransportConfig",
                       "ComputeConfig", "Clock", "SimulationConfig", "DesignPoint",
                       "SupervisionPolicy",
                       "ScheduleDocument", "FaultEvent", "SimulationPayload",
                       "SpaceDocument", "Axes", "Constraints", "CostTable"}


class TestRules:
    def test_bool_is_never_a_number_and_int_fields_reject_floats(self):
        errors = field_errors(SystemConfig, {"local_rings": 2.0, "endpoint_delay_cycles": True})
        assert sorted(code for _path, code, _msg in errors) == ["bad-type", "bad-type"]

    def test_enum_errors_list_the_allowed_values(self):
        [(_path, code, message)] = field_errors(SystemConfig, {"algorithm": "quantum"})
        assert code == "bad-enum-value" and "baseline, enhanced" in message

    def test_range_errors_state_the_range_and_the_value(self):
        [(_path, _code, message)] = field_errors(LinkConfig, {
            "bandwidth_gbps": 1.0, "latency_cycles": 0.0, "packet_size_bytes": 64,
            "efficiency": 1.5})
        assert message == "must be in (0, 1], got 1.5"

    def test_sibling_bound_reads_the_same_document(self):
        [(path, _code, message)] = field_errors(TransportConfig, {
            "backoff_base_cycles": 500.0, "backoff_max_cycles": 100.0})
        assert path == "backoff_max_cycles"
        assert "backoff_base_cycles (500)" in message

    def test_unknown_key_gets_one_typo_hint(self):
        [(path, code, message)] = field_errors(LinkConfig, {
            "bandwith_gbps": 1.0, "bandwidth_gbps": 1.0, "latency_cycles": 0.0,
            "packet_size_bytes": 64})
        assert (path, code) == ("bandwith_gbps", "unknown-parameter")
        assert "did you mean 'bandwidth_gbps'" in message

    def test_missing_required_fields(self):
        errors = field_errors(LinkConfig, {}, "network.local_link")
        assert {(p, c) for p, c, _m in errors} == {
            ("network.local_link.bandwidth_gbps", "missing-parameter"),
            ("network.local_link.latency_cycles", "missing-parameter"),
            ("network.local_link.packet_size_bytes", "missing-parameter")}

    def test_check_names_the_class_and_field(self):
        with pytest.raises(ConfigError, match="invalid SystemConfig: local_rings"):
            check(dataclasses.replace(SystemConfig(), local_rings=0))

    def test_to_raw_round_trips_through_config_from_dict(self):
        """``config_from_dict`` was ``build(SimulationConfig, ...)``."""
        config = paper_simulation_config()
        assert build(SimulationConfig, to_raw(config)) == config


class TestParseShape:
    @pytest.mark.parametrize("value,dims", [("2x4x4", (2, 4, 4)), ("4X16", (4, 16)),
                                            ([2, 2, 2], (2, 2, 2)), ((1, 8), (1, 8))])
    def test_accepts_strings_and_int_lists(self, value, dims):
        assert parse_shape(value) == dims

    @pytest.mark.parametrize("value,code", [
        ("2xbanana", "bad-shape"), ([2, 4, True], "bad-type"), ([], "bad-type"),
        (8, "bad-type"), ([2.0, 4], "bad-type"), ("2x0x4", "out-of-range")])
    def test_rejects(self, value, code):
        with pytest.raises(ConfigError) as excinfo:
            parse_shape(value)
        assert excinfo.value.code == code

    def test_arity(self):
        with pytest.raises(ConfigError, match="must have 3 dimensions"):
            parse_shape("4x16", 3)
