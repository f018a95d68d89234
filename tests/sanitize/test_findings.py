"""Tests for the findings machinery: severity ordering, sorting, serialization."""

import json

import pytest

from repro.sanitize.findings import (
    Finding,
    LintReport,
    Severity,
    reports_to_json,
)


def finding(severity=Severity.ERROR, code="c", param="p", message="m",
            source="", line=0):
    return Finding(severity=severity, code=code, param=param,
                   message=message, source=source, line=line)


class TestSeverityOrdering:
    def test_ranks(self):
        assert Severity.ERROR.rank == 0
        assert Severity.WARNING.rank == 1
        assert Severity.INFO.rank == 2

    def test_comparison(self):
        assert Severity.ERROR < Severity.WARNING < Severity.INFO
        assert not Severity.INFO < Severity.ERROR

    def test_sorted_most_severe_first(self):
        shuffled = [Severity.INFO, Severity.ERROR, Severity.WARNING]
        assert sorted(shuffled) == [
            Severity.ERROR, Severity.WARNING, Severity.INFO]

    def test_comparison_with_non_severity_raises(self):
        with pytest.raises(TypeError):
            Severity.ERROR < 3  # noqa: B015 - the comparison is the test


class TestFindingSortKey:
    def test_severity_dominates(self):
        warn = finding(Severity.WARNING, source="a.py", line=1)
        err = finding(Severity.ERROR, source="z.py", line=99)
        assert sorted([warn, err], key=Finding.sort_key) == [err, warn]

    def test_same_severity_sorts_by_source_then_line(self):
        a2 = finding(source="a.py", line=2)
        a1 = finding(source="a.py", line=1)
        b1 = finding(source="b.py", line=1)
        ordered = sorted([b1, a2, a1], key=Finding.sort_key)
        assert ordered == [a1, a2, b1]

    def test_sorted_findings_does_not_mutate(self):
        report = LintReport(source="x")
        report.add(Severity.INFO, "later", "", "m")
        report.add(Severity.ERROR, "first", "", "m")
        ordered = report.sorted_findings()
        assert [f.code for f in ordered] == ["first", "later"]
        assert [f.code for f in report.findings] == ["later", "first"]


class TestFormat:
    def test_param_included_when_present(self):
        text = finding(param="net.bw", source="cfg.json").format()
        assert "net.bw: " in text
        assert text.startswith("cfg.json: error: [c]")

    def test_empty_param_omitted(self):
        text = finding(param="").format()
        assert ": :" not in text
        assert "[c] m" in text

    def test_to_dict_round_trips_line_and_severity(self):
        data = finding(Severity.WARNING, line=17).to_dict()
        assert data["severity"] == "warning"
        assert data["line"] == 17


class TestLintReport:
    def test_ok_and_strict(self):
        report = LintReport(source="x")
        assert report.ok()
        report.add(Severity.WARNING, "w", "", "m")
        assert report.ok()
        assert not report.ok(strict=True)
        report.add(Severity.ERROR, "e", "", "m")
        assert not report.ok()

    def test_reports_to_json_parses(self):
        report = LintReport(source="x")
        report.add(Severity.ERROR, "e", "p", "m", line=3)
        data = json.loads(reports_to_json([report]))
        assert data[0]["errors"] == 1
        assert data[0]["findings"][0]["line"] == 3
