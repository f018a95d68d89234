"""Smoke tests: the example scripts must run end to end.

The two ResNet-scale examples (quickstart, topology comparison) are
exercised at reduced scale elsewhere; here we execute the fast examples
outright and import-check the rest.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "custom_workload_file.py",
    "future_topologies.py",
    "logical_mapping.py",
    "pipeline_parallel.py",
]

ALL_EXAMPLES = [
    "quickstart.py",
    "topology_comparison.py",
    "transformer_hybrid.py",
    "dlrm_alltoall.py",
    "custom_workload_file.py",
    "logical_mapping.py",
    "future_topologies.py",
    "pipeline_parallel.py",
    "bandwidth_test.py",
    "design_space_exploration.py",
]


class TestExamples:
    def test_all_examples_exist(self):
        present = {p.name for p in EXAMPLES.glob("*.py")}
        missing = set(ALL_EXAMPLES) - present
        assert not missing, f"missing examples: {missing}"

    @pytest.mark.parametrize("script", ALL_EXAMPLES)
    def test_examples_compile(self, script):
        path = EXAMPLES / script
        source = path.read_text()
        compile(source, str(path), "exec")

    @pytest.mark.parametrize("script", FAST_EXAMPLES)
    def test_fast_examples_run(self, script):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / script)],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip()
