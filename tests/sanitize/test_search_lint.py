"""Tests for the search-space static lint (`astra-repro lint` on
search-space JSONs and the seeded good/bad fixtures)."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.sanitize.static_lint import lint_run_spec, lint_search_space, lint_spec_file
from repro.search.space import SearchSpace

GOOD = "examples/configs/search_fig09.json"
BAD_AXIS = "tests/data/badconfigs/bad_search_space_axis.json"
BAD_BOUNDS = "tests/data/badconfigs/bad_search_space_bounds.json"


def checks_of(findings):
    return {f.code for f in findings}


def good_data():
    with open(GOOD) as f:
        return json.load(f)


class TestLintSearchSpace:
    def test_shipped_example_is_clean(self):
        assert lint_search_space(good_data(), source=GOOD) == []

    def test_unknown_top_level_key(self):
        data = good_data()
        data["budgit"] = 3
        findings = lint_search_space(data)
        assert "unknown-parameter" in checks_of(findings)

    def test_unknown_axis_with_suggestion(self):
        data = good_data()
        data["axes"]["topologee"] = ["Torus"]
        findings = lint_search_space(data)
        assert any(f.code == "unknown-parameter"
                   and "topology" in f.message for f in findings)

    def test_empty_axis(self):
        data = good_data()
        data["axes"]["chunks"] = []
        findings = lint_search_space(data)
        assert "empty-axis" in checks_of(findings)

    def test_out_of_range_bounds(self):
        data = good_data()
        data["size_bytes"] = 0
        data["axes"]["local_rings"] = [0]
        data["constraints"]["max_links_per_npu"] = -1
        params = {f.param for f in lint_search_space(data)}
        assert {"size_bytes", "axes.local_rings",
                "constraints.max_links_per_npu"} <= params

    def test_missing_num_npus(self):
        data = good_data()
        del data["num_npus"]
        findings = lint_search_space(data)
        assert "missing-parameter" in checks_of(findings)

    def test_bad_collective(self):
        data = good_data()
        data["collective"] = "all-of-them"
        findings = lint_search_space(data)
        assert any(f.param == "collective" for f in findings)

    def test_unknown_cost_key(self):
        data = good_data()
        data["cost"]["link_dollars"] = 1.0
        findings = lint_search_space(data)
        assert any(f.param == "cost.link_dollars" for f in findings)

    def test_shape_mismatch_caught_by_construction(self):
        data = good_data()
        data["axes"]["torus_shape"] = ["2x4x4"]
        findings = lint_search_space(data)
        assert "search-space-error" in checks_of(findings)

    def test_not_an_object(self):
        findings = lint_search_space(["axes"])
        assert "malformed-spec" in checks_of(findings)


class TestFieldTypes:
    """The linter and SearchSpace.from_dict reject the same mistyped values
    (from_dict used to run ``num_npus: 8.9`` as 8, accept ``"8"``, a
    ``true`` size and a ``true`` shape dimension)."""

    @pytest.mark.parametrize("key,value,param", [
        ("num_npus", 8.9, "num_npus"),
        ("num_npus", "8", "num_npus"),
        ("size_bytes", True, "size_bytes"),
        ("axes", {"torus_shape": [[2, 4, True]]}, "axes.torus_shape"),
    ])
    def test_one_bad_type_error_and_construction_refuses(self, key, value, param):
        data = dict(good_data(), **{key: value})
        findings = lint_search_space(data)
        assert [(f.code, f.param) for f in findings] == [("bad-type", param)]
        with pytest.raises(ConfigError, match=param):
            SearchSpace.from_dict(data)


class TestRouting:
    def test_run_spec_routes_axes_documents(self):
        report = lint_run_spec(good_data(), source=GOOD)
        assert report.ok(strict=True)

    def test_spec_file_routes_fixtures(self):
        assert lint_spec_file(GOOD).ok(strict=True)
        assert not lint_spec_file(BAD_AXIS).ok(strict=False)
        assert not lint_spec_file(BAD_BOUNDS).ok(strict=False)

    def test_ordinary_run_specs_still_lint(self):
        report = lint_spec_file("examples/configs/flaky_torus.json")
        assert report.ok(strict=False)


class TestCli:
    def test_good_fixture_strict(self, capsys):
        assert main(["lint", GOOD, "--strict"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_fixtures_fail(self, capsys):
        assert main(["lint", BAD_AXIS]) == 1
        assert main(["lint", BAD_BOUNDS]) == 1
        out = capsys.readouterr().out
        assert "empty-axis" in out
        assert "out-of-range" in out
