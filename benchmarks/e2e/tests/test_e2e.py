"""Tests of the end-to-end benchmark at smoke scale (about 25 s).

Run from the repository root::

    python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
sys.path.insert(0, E2E)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(*args: str, tmp_path) -> tuple[int, list[dict], dict]:
    """run.py at smoke scale: (exit code, --out records, last JSON line)."""
    out = tmp_path / "records.jsonl"
    proc = subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), "--smoke", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return proc.returncode, records, last


def test_metric_names_and_units():
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in bench[group]]
        assert all(m["unit"] for m in bench[group])
    assert all(NAME_RE.match(name) for name in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_every_module_has_a_layer():
    assert layers.unmapped_modules(os.path.join(ROOT, "src", "repro")) == []


def test_phase_stats_lines_come_from_the_source():
    import inspect

    from repro.collectives.context import PhaseStats

    lines = layers.phase_stats_lines()
    assert inspect.getsourcelines(PhaseStats.record)[1] in lines
    layer_map = layers.LayerMap(os.path.join(ROOT, "src", "repro"))
    context = os.path.join(ROOT, "src", "repro", "collectives", "context.py")
    assert layer_map.layer_of((context, lines.start + 1, "record")) == "stats"
    assert layer_map.layer_of((context, lines.stop + 5, "send")) == "collectives"


def test_attribution_charges_foreign_time_to_callers():
    root = os.path.join(ROOT, "src", "repro")
    fast = (os.path.join(root, "network", "fast_backend.py"), 44, "send")
    events = (os.path.join(root, "events", "engine.py"), 696, "run")
    builtin = ("~", 0, "<built-in method heappush>")
    helper = ("/usr/lib/python3/json/encoder.py", 10, "encode")
    stats = {
        events: (1, 1, 1.0, 4.0, {}),
        fast: (2, 2, 1.0, 3.0, {events: (2, 2, 1.0, 3.0)}),
        # A foreign cycle: helper <-> builtin, entered from both layers.
        helper: (3, 3, 0.5, 1.5, {fast: (2, 2, 0.25, 1.0), builtin: (1, 1, 0.25, 0.5)}),
        builtin: (4, 4, 1.5, 1.5, {helper: (1, 1, 0.5, 0.5), events: (3, 3, 1.0, 1.0)}),
    }
    seconds = layers.attribute(stats, layers.LayerMap(root))
    assert sum(seconds.values()) == pytest.approx(4.0)
    assert seconds["events"] > 1.0 and seconds["network.fast"] > 1.0
    assert seconds["other"] == pytest.approx(0.0, abs=1e-9)


def test_import_times_parse():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |      50000 |   numpy",
        "import time:       300 |     400000 | repro.cli",
        "import time:       400 |        400 | site",
    ]
    assert layers.import_times(lines) == {"package_s": 0.4, "networkx_s": 0.0,
                                          "numpy_s": 0.05}


def test_seeded_inputs_repeat_per_seed_and_differ_across_seeds(tmp_path):
    a, b, c = (workloads.service_payloads(seed, 200) for seed in (1, 1, 2))
    assert a == b and a != c
    distinct = {json.dumps(p, sort_keys=True) for p in a}
    assert len(a) == 200 and len(distinct) == 150
    assert all(65536 <= p["size_mb"] * 1024 * 1024 <= 1048576 + 1024 for p in a)

    one, again, two = (workloads.search_inputs(seed, "full", str(tmp_path))
                       for seed in (1, 1, 2))
    assert one == again and one["seed"] != two["seed"]
    assert one["budget"] == two["budget"] == 312


def test_untraced_smoke_emits_every_end_to_end_metric(tmp_path):
    code, records, last = _run(tmp_path=tmp_path)
    assert code == 0, records
    end_to_end = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert sorted(r["workload"] for r in records) == sorted(workloads.WORKLOADS)
    for record in records:
        assert record["error_rate"] == 0, record["problems"]
        assert set(end_to_end) <= set(record["metrics"])
        for metric, unit in end_to_end.items():
            key = f"{record['workload']}.{metric}"
            assert last["metrics"][key]["unit"] == unit
            assert last["metrics"][key]["value"] > 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 5


def test_traced_smoke_emits_every_layer_metric_and_shares_sum_to_one(tmp_path):
    code, records, last = _run("--trace", "--workload", "search_fig09",
                               "--workload", "service_mixed", tmp_path=tmp_path)
    assert code == 0, records
    per_layer = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    for record in records:
        assert set(per_layer) == set(record["per_layer"])
        shares = sum(record["per_layer"][f"{layer}.share"] for layer in layers.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.02)
        assert record["per_layer"]["trace.overhead"] > 0
        for metric, unit in per_layer.items():
            assert last["metrics"][f"{record['workload']}.{metric}"]["unit"] == unit
    search = next(r for r in records if r["workload"] == "search_fig09")["per_layer"]
    assert search["stats.records_per_msg"] == 2.0
    assert search["search.simulations_run"] == 12


def test_corrupted_pin_fails_the_run(tmp_path):
    with open(os.path.join(E2E, "pins.json")) as f:
        pins = json.load(f)
    pins["allreduce_detailed"]["smoke"]["cycles"] += 1.0
    bad = tmp_path / "pins.json"
    bad.write_text(json.dumps(pins))
    code, records, last = _run("--workload", "allreduce_detailed", "--pins", str(bad),
                               tmp_path=tmp_path)
    assert code == 1
    assert records[0]["error_rate"] > 0
    assert last["correct"] is False and last["failed"] >= 1


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    import shutil

    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--workload",
                           "cli_collective", "--seed", "1", "--seconds", "10", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
