"""Tests for the astra-repro command line interface."""

import argparse
import dataclasses
import io
import json
import signal
import subprocess
import sys

import pytest

from repro.cli import _build_platform, build_arg_parser, main
from repro.config.fields import RULE, build, rules
from repro.config.parameters import DesignPoint
from repro.workload.parser import dumps
from repro.models.mlp import mlp


class TestArgumentParsing:
    def test_train_defaults(self):
        args = build_arg_parser().parse_args(["train"])
        assert args.model == "resnet50"
        assert _build_platform(args).name == "torus-2x4x4"
        assert args.num_passes == 2

    def test_collective_defaults(self):
        args = build_arg_parser().parse_args(["collective"])
        assert args.op == "allreduce"
        assert args.size_mb == 8.0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args([])


class TestCollectiveCommand:
    def test_torus_all_reduce(self, capsys):
        code = main(["collective", "--op", "allreduce", "--size-mb", "1",
                     "--shape", "2x2x2", "--algorithm", "enhanced"])
        assert code == 0
        out = capsys.readouterr().out
        assert "allreduce" in out
        assert "cycles" in out

    def test_alltoall_topology(self, capsys):
        code = main(["collective", "--topology", "AllToAll", "--shape", "2x4",
                     "--op", "alltoall", "--size-mb", "1"])
        assert code == 0
        assert "alltoall" in capsys.readouterr().out

    def test_breakdown_flag(self, capsys):
        code = main(["collective", "--size-mb", "1", "--shape", "2x2x2",
                     "--breakdown"])
        assert code == 0
        assert "P0" in capsys.readouterr().out

    def test_bad_shape_is_reported(self, capsys):
        code = main(["collective", "--shape", "banana"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_torus_needs_three_dims(self, capsys):
        code = main(["collective", "--shape", "2x4"])
        assert code == 2

    def test_alltoall_needs_two_dims(self, capsys):
        code = main(["collective", "--topology", "AllToAll",
                     "--shape", "2x2x2"])
        assert code == 2

    def test_single_npu_shape_is_refused(self, capsys):
        assert main(["collective", "--shape", "1x1x1"]) == 2
        assert "single NPU" in capsys.readouterr().err


def _subparser(command: str) -> argparse.ArgumentParser:
    parser = build_arg_parser()
    [subparsers] = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices[command]


class TestDesignPointFlags:
    """The train/collective/bandwidth platform flags are the DesignPoint
    table, so they cannot drift from the service payload or the search."""

    @pytest.mark.parametrize("command", ["train", "collective", "bandwidth"])
    def test_every_field_is_a_flag_with_the_tables_default_and_choices(self, command):
        actions = {a.dest: a for a in _subparser(command)._actions}
        for f in dataclasses.fields(DesignPoint):
            action = actions[f.name]
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert tuple(action.choices or ()) == f.metadata[RULE].tokens
        args = build_arg_parser().parse_args([command])
        assert build(DesignPoint, {n: getattr(args, n) for n in rules(DesignPoint)}) \
            == DesignPoint()

    @pytest.mark.parametrize("command", ["train", "collective", "bandwidth"])
    def test_alltoall_without_shape_builds_4x16(self, command):
        args = build_arg_parser().parse_args([command, "--topology", "AllToAll"])
        assert _build_platform(args).name == "alltoall-4x16"

    def test_alltoall_collective_without_shape_runs(self, capsys):
        assert main(["collective", "--topology", "AllToAll", "--size-mb", "0.0625"]) == 0
        assert "alltoall-4x16" in capsys.readouterr().out

    def test_bad_design_value_is_a_config_error(self, capsys):
        assert main(["collective", "--shape", "2x2x2", "--local-rings", "0"]) == 2
        assert "local_rings" in capsys.readouterr().err

    def test_cli_import_loads_no_harness_search_service_or_parallel(self):
        """Guards the cold start: the flags come from the config layer."""
        code = ("import json, sys, repro.cli\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[:2] in "
                "[['repro', p] for p in ('harness', 'search', 'service', 'parallel')])))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        assert json.loads(done.stdout) == []

    def test_collective_run_loads_no_logging_hashlib_networkx_or_numpy(self):
        """Guards the cold start of a fast-backend collective: the run
        cache's key hashing and the executor's one warning import what
        they need only when they run."""
        code = ("import json, sys\n"
                "from repro.cli import main\n"
                "assert main(['collective', '--shape', '2x2x2', '--size-mb', '1']) == 0\n"
                "print(json.dumps(sorted(m for m in ('logging', 'hashlib', 'networkx', "
                "'numpy') if m in sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == []


class TestAllToAllPlatformFlags:
    """--scheduling-policy and --compute-scale reach an AllToAll platform
    as they reach a torus one (both used to be dropped silently)."""

    ARGS = ["train", "--model", "mlp", "--topology", "AllToAll", "--shape", "2x4",
            "--num-passes", "1"]

    def summary(self, capsys, *flags):
        assert main(self.ARGS + list(flags)) == 0
        return next(line for line in capsys.readouterr().out.splitlines()
                    if "cycles" in line)

    def test_scheduling_policy_changes_the_run(self, capsys):
        assert self.summary(capsys) != self.summary(capsys, "--scheduling-policy", "FIFO")

    def test_compute_scale_speeds_up_compute(self, capsys):
        assert "compute 154,650" in self.summary(capsys)
        assert "compute 38,663" in self.summary(capsys, "--compute-scale", "4")


class TestWatchdogFlags:
    ARGS = ["collective", "--shape", "2x2x2", "--op", "allreduce",
            "--size-mb", "1"]

    def test_watchdog_does_not_move_cycles(self, capsys):
        assert main(self.ARGS) == 0
        bare = capsys.readouterr().out
        assert main(self.ARGS + ["--watchdog"]) == 0
        watched = capsys.readouterr().out
        assert "54,639 cycles" in bare
        assert watched == bare

    def test_bundle_dir_implies_watchdog(self, tmp_path, capsys):
        """Node 3 pauses forever: without the watchdog the transport
        retries until it gives up; --bundle-dir and an explicit stall
        window must turn that into a diagnosed stall with one bundle."""
        schedule = tmp_path / "pause.json"
        schedule.write_text('{"events": [{"time": 1000, '
                            '"action": "node_pause", "node": 3}]}')
        bundles = tmp_path / "bundles"
        code = main(self.ARGS + ["--fault-schedule", str(schedule),
                                 "--watchdog-stall-cycles", "50000",
                                 "--bundle-dir", str(bundles)])
        assert code == 2
        assert "simulation stalled" in capsys.readouterr().err
        assert len(list(bundles.glob("stall-*.json"))) == 1

    def test_checkpoint_flags_are_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--checkpoint-every", "2000"])
        assert exc.value.code == 2


class TestFaultScheduleExample:
    def test_flaky_torus_schedule_runs_and_recovers(self, capsys):
        """The shipped schedule drops, pauses and degrades links; the
        reliable transport retransmits and every message recovers."""
        import re
        from pathlib import Path

        schedule = Path(__file__).resolve().parents[1] / "examples" / "configs" / "flaky_torus.json"
        code = main(["collective", "--topology", "Torus", "--shape", "2x2x2",
                     "--op", "allreduce", "--size-mb", "8",
                     "--fault-schedule", str(schedule)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1,370,808 cycles" in out
        dropped, retries = (int(re.search(rf"(\d+) {word}", out).group(1))
                            for word in ("dropped", "retries"))
        assert dropped > 0 and retries > 0
        assert "0 failed" in out


class TestTrainCommand:
    def test_mlp_training(self, capsys):
        code = main(["train", "--model", "mlp", "--shape", "2x2x2",
                     "--num-passes", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mlp" in out
        assert "iteration" in out

    def test_layer_table_flag(self, capsys):
        code = main(["train", "--model", "mlp", "--shape", "2x2x2",
                     "--num-passes", "1", "--layer-table"])
        assert code == 0
        assert "fc1" in capsys.readouterr().out

    def test_workload_file(self, tmp_path, capsys):
        path = tmp_path / "wl.txt"
        path.write_text(dumps(mlp(widths=(256, 128), input_features=64)))
        code = main(["train", "--workload-file", str(path),
                     "--shape", "2x2x2", "--num-passes", "1"])
        assert code == 0


class TestBandwidthCommand:
    def test_bandwidth_table(self, capsys):
        code = main(["bandwidth", "--shape", "2x2x2", "--sizes-mb", "0.25,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "algbw" in out and "busbw" in out

    def test_bad_sizes_list(self, capsys):
        code = main(["bandwidth", "--shape", "2x2x2", "--sizes-mb", "a,b"])
        assert code == 2


class TestMemoryCommand:
    def test_memory_report(self, capsys):
        code = main(["memory", "--model", "resnet50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "parameters" in out
        assert "HBM" in out

    def test_memory_overflow_flagged(self, capsys):
        code = main(["memory", "--model", "resnet50", "--hbm-gb", "0.1"])
        assert code == 1
        assert "WARNING" in capsys.readouterr().out


class TestGlobalExecutionFlags:
    def test_defaults(self):
        args = build_arg_parser().parse_args(["collective"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache
        assert not args.profile

    def test_profile_prints_phase_table(self, capsys):
        code = main(["--profile", "collective", "--size-mb", "1",
                     "--shape", "2x2x2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile [collective]" in out
        assert "events/sec" in out

    def test_cache_dir_reports_summary_and_reuses(self, tmp_path, capsys):
        argv = ["--cache-dir", str(tmp_path), "collective", "--size-mb", "1",
                "--shape", "2x2x2"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 hits" in cold and "1 stored" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "1 hits" in warm and "0 stored" in warm
        # Identical reported cycles from the cached payload.
        assert cold.splitlines()[0] == warm.splitlines()[0]

    def test_no_cache_disables_cache_dir(self, tmp_path, capsys):
        argv = ["--cache-dir", str(tmp_path), "--no-cache", "collective",
                "--size-mb", "1", "--shape", "2x2x2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run cache" not in out

    def test_jobs_flag_gives_identical_output(self, capsys):
        argv = ["collective", "--size-mb", "1", "--shape", "2x2x2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(["--jobs", "4"] + argv) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_arg_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8421
        assert args.state_dir == "serve-state"
        assert args.queue_limit == 16
        assert args.retry_after == 1.0
        assert args.progress_every_events == 4096

    def test_serve_accepts_supervision_flags(self):
        args = build_arg_parser().parse_args(
            ["serve", "--port", "0", "--queue-limit", "4",
             "--point-timeout", "30", "--max-point-retries", "1",
             "--quarantine-dir", "q"])
        assert args.port == 0
        assert args.queue_limit == 4
        assert args.point_timeout == 30.0
        assert args.max_point_retries == 1
        assert args.quarantine_dir == "q"

    def test_sigterm_handler_installed_before_listening_line(self, tmp_path, monkeypatch):
        """A client that sends SIGTERM as soon as it reads the listening
        line must get a graceful drain, never the signal's default action."""
        from repro.service.daemon import ServiceDaemon

        handlers_at_announce = []

        class Stdout(io.StringIO):
            def write(self, text):
                if "listening on" in text:
                    handlers_at_announce.append(signal.getsignal(signal.SIGTERM))
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Stdout())
        monkeypatch.setattr(ServiceDaemon, "wait", lambda self, timeout=None: True)
        previous = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}
        try:
            assert main(["serve", "--port", "0", "--state-dir", str(tmp_path / "s")]) == 0
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        [handler] = handlers_at_announce
        assert getattr(handler, "__func__", None) is ServiceDaemon.request_stop

    def test_serve_rejects_bad_queue_limit(self, tmp_path, capsys):
        code = main(["serve", "--port", "0", "--queue-limit", "0",
                     "--state-dir", str(tmp_path / "s")])
        assert code == 2
        assert "queue_limit" in capsys.readouterr().err
