"""Tests for the `astra-repro search` subcommand."""

import json

from repro.cli import build_arg_parser, main

EXAMPLE = "examples/configs/search_fig09.json"


def small_space(tmp_path, **overrides):
    """A fast 4-NPU space file for CLI runs."""
    data = {
        "name": "cli-unit",
        "num_npus": 4,
        "collective": "allreduce",
        "size_bytes": 65536,
        "axes": {
            "topology": ["Torus", "AllToAll"],
            "torus_shape": ["1x4x1", "2x2x1"],
            "alltoall_shape": ["1x4", "2x2"],
            "algorithm": ["baseline", "enhanced"],
            "scheduling_policy": ["LIFO"],
            "chunks": [1, 4],
            "local_rings": [1, 2],
            "horizontal_rings": [1],
            "vertical_rings": [1],
            "global_switches": [1, 2],
            "symmetric": [False],
        },
    }
    data.update(overrides)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestArguments:
    def test_defaults(self):
        args = build_arg_parser().parse_args(["search", "--space", EXAMPLE])
        assert args.objective == "time"
        assert args.strategy == "evolutionary"
        assert args.budget == 32
        assert args.seed == 2020

    def test_lambda_flag(self):
        args = build_arg_parser().parse_args(
            ["search", "--space", EXAMPLE, "--lambda", "12"])
        assert args.lam == 12


class TestSearchCommand:
    def test_basic_run(self, tmp_path, capsys):
        code = main(["search", "--space", small_space(tmp_path),
                     "--budget", "6", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluated 6 unique points (6 simulated, budget 6)" in out
        assert "rank" in out
        assert "seed: 5" in out

    def test_missing_space_file(self, tmp_path, capsys):
        code = main(["search", "--space", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_space_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_npus": 8, "axes": {"chunks": []}}))
        code = main(["search", "--space", str(path)])
        assert code == 2

    def test_jobs_values_give_identical_output(self, tmp_path, capsys):
        space = small_space(tmp_path)
        assert main(["search", "--space", space, "--budget", "8",
                     "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["search", "--space", space, "--budget", "8",
                     "--jobs", "3"]) == 0
        fanned = capsys.readouterr().out
        assert serial == fanned

    def test_out_writes_ranked_frontier_json(self, tmp_path, capsys):
        out_path = tmp_path / "frontier.json"
        code = main(["search", "--space", small_space(tmp_path),
                     "--budget", "5", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["evaluations"] == 5
        scores = [row["score"] for row in payload["frontier"]]
        assert scores == sorted(scores)
        assert {"genome", "label", "duration_cycles", "score",
                "floor_cycles", "dollars"} <= set(payload["frontier"][0])

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path, capsys):
        space = small_space(tmp_path)
        cache = str(tmp_path / "cache")
        argv = ["--cache-dir", cache, "search", "--space", space,
                "--budget", "6"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "(6 simulated" in cold
        assert "6 stored" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "(0 simulated" in warm
        assert "6 hits" in warm
        assert "0 stored" in warm
        # The ranked tables (between the accounting line and the cache
        # summary) match bit for bit.
        assert cold.splitlines()[3:-1] == warm.splitlines()[3:-1]
        assert warm.splitlines()[3:-1]

    def test_trajectory_and_resume(self, tmp_path, capsys):
        space = small_space(tmp_path)
        log = str(tmp_path / "traj.jsonl")
        assert main(["search", "--space", space, "--budget", "6",
                     "--trajectory", log]) == 0
        capsys.readouterr()
        assert main(["search", "--space", space, "--budget", "4",
                     "--trajectory", log, "--resume"]) == 0
        out = capsys.readouterr().out
        # 4 new evaluations; the frontier folds in the 6 resumed points.
        assert "evaluated 4 unique points (4 simulated, budget 4)" in out
        with open(log) as f:
            records = [json.loads(line) for line in f if line.strip()]
        assert len(records) == 1 + 6 + 4

    def test_objective_and_strategy_flags(self, tmp_path, capsys):
        code = main(["search", "--space", small_space(tmp_path),
                     "--budget", "4", "--objective", "cost",
                     "--strategy", "random", "--generation-size", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective: cost" in out
        assert "strategy: random" in out

    def test_unknown_objective_or_strategy_is_a_config_error(self, tmp_path, capsys):
        space = small_space(tmp_path)
        assert main(["search", "--space", space, "--objective", "speed"]) == 2
        assert "unknown objective 'speed'" in capsys.readouterr().err
        assert main(["search", "--space", space, "--strategy", "greedy"]) == 2
        assert "unknown strategy 'greedy'" in capsys.readouterr().err

    def test_top_limits_table(self, tmp_path, capsys):
        code = main(["search", "--space", small_space(tmp_path),
                     "--budget", "6", "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "... and 4 more points" in out
