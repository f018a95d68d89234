"""Tests for the ``astra-repro lint`` subcommand and --sanitize flag."""

import json
import os

import pytest

from repro.cli import build_arg_parser, main

DATA = os.path.join(os.path.dirname(__file__), "..", "data", "badconfigs")
EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..",
                        "examples", "configs")


def bad(name):
    return os.path.join(DATA, name)


def example(name):
    return os.path.join(EXAMPLES, name)


class TestLintCommand:
    def test_presets_default_exit_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "torus-2x4x4" in out

    def test_dimension_mismatch_exits_nonzero(self, capsys):
        assert main(["lint", bad("dimension_mismatch.json")]) == 1
        out = capsys.readouterr().out
        assert "search-space-error" in out and "yields 32 NPUs" in out

    def test_bad_fault_factor_exits_nonzero(self, capsys):
        assert main(["lint", bad("bad_fault_factor.json")]) == 1
        assert "events[0].bandwidth_factor" in capsys.readouterr().out

    def test_shipped_examples_exit_zero(self, capsys):
        specs = [example(n) for n in sorted(os.listdir(EXAMPLES))]
        assert specs, "no example configs shipped"
        assert main(["lint"] + specs) == 0

    def test_json_output_machine_readable(self, capsys):
        assert main(["lint", "--json", bad("bad_fault_factor.json")]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["errors"] >= 1
        finding = next(f for f in reports[0]["findings"]
                       if f["severity"] == "error")
        assert finding["code"] == "out-of-range"
        assert finding["param"] == "fault_schedule.events[0].bandwidth_factor"
        assert finding["source"].endswith("bad_fault_factor.json")

    def test_missing_file_reported(self, capsys):
        assert main(["lint", "/nonexistent/nowhere.json"]) == 1
        assert "unreadable-file" in capsys.readouterr().out

    def test_invalid_json_reported(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["lint", str(p)]) == 1
        assert "invalid-json" in capsys.readouterr().out

    def test_strict_flag_parsed(self):
        args = build_arg_parser().parse_args(["lint", "--strict", "--json"])
        assert args.strict and args.json and args.specs == []

    def test_explicit_presets_with_files(self, capsys):
        code = main(["lint", "--presets", example("flaky_torus.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "torus-2x4x4" in out and "flaky_torus.json" in out


class TestSanitizeFlag:
    def test_collective_with_sanitize(self, capsys):
        code = main(["collective", "--op", "allreduce", "--size-mb", "0.25",
                     "--shape", "2x2x1", "--sanitize"])
        assert code == 0
        assert "cycles" in capsys.readouterr().out

    def test_flag_available_on_all_platform_commands(self):
        parser = build_arg_parser()
        for cmd in (["train"], ["collective"], ["bandwidth"]):
            args = parser.parse_args(cmd + ["--sanitize"])
            assert args.sanitize

    @pytest.mark.parametrize("cmd", ["train", "collective", "bandwidth"])
    def test_flag_defaults_off(self, cmd):
        args = build_arg_parser().parse_args([cmd])
        assert args.sanitize is False
