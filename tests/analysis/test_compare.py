"""Tests for the comparison-table helper."""

import pytest

from repro.analysis.compare import ComparisonTable
from repro.errors import ReproError


class TestComparisonTable:
    def test_speedup(self):
        table = ComparisonTable()
        table.add("baseline", 1000.0)
        table.add("enhanced", 250.0)
        assert table.speedup("enhanced", "baseline") == pytest.approx(4.0)

    def test_best(self):
        table = ComparisonTable()
        table.add("a", 300.0)
        table.add("b", 100.0)
        table.add("c", 200.0)
        assert table.best() == "b"

    def test_format_contains_rows_and_speedups(self):
        table = ComparisonTable(metric="cycles")
        table.add("baseline", 1000.0)
        table.add("enhanced", 500.0)
        text = table.format(baseline="baseline")
        assert "baseline" in text
        assert "2.00x" in text

    def test_duplicate_label_rejected(self):
        table = ComparisonTable()
        table.add("x", 1.0)
        with pytest.raises(ReproError):
            table.add("x", 2.0)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ReproError):
            ComparisonTable().add("x", 0.0)

    def test_empty_table_errors(self):
        with pytest.raises(ReproError):
            ComparisonTable().best()
        with pytest.raises(ReproError):
            ComparisonTable().format()

    def test_unknown_label(self):
        table = ComparisonTable()
        table.add("a", 1.0)
        with pytest.raises(ReproError):
            table.speedup("a", "zzz")
