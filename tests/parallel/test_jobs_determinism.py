"""Serial-vs-parallel determinism over the Fig. 9-12 design points.

The executor's contract: ``jobs=4`` produces bit-identical
``duration_cycles`` and delay breakdowns to ``jobs=1`` for every point,
in the same order.  Payloads are scaled down from the paper's sweeps to
keep the suite fast — determinism does not depend on payload size.
"""

import pytest

from repro.harness import fig09, fig10, fig11, fig12
from repro.parallel.executor import ParallelExecutor, set_default_executor

SIZES = [64 * 1024.0, 256 * 1024.0]


@pytest.fixture(autouse=True)
def _clean_default():
    yield
    set_default_executor(None)


def _with_jobs(jobs, fn):
    executor = ParallelExecutor(jobs=jobs)
    set_default_executor(executor)
    try:
        return fn()
    finally:
        set_default_executor(None)
        executor.close()


def _assert_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.label == b.label
        assert a.size_bytes == b.size_bytes
        assert a.duration_cycles == b.duration_cycles
        assert a.breakdown.as_dict() == b.breakdown.as_dict()


class TestFigureJobsDeterminism:
    def test_fig09_points(self):
        serial = _with_jobs(1, lambda: fig09.run(sizes=SIZES))
        parallel = _with_jobs(4, lambda: fig09.run(sizes=SIZES))
        _assert_identical(serial.alltoall, parallel.alltoall)
        _assert_identical(serial.torus, parallel.torus)

    def test_fig10_points(self):
        from repro.config.parameters import TorusShape

        shapes = (TorusShape(1, 8, 8), TorusShape(4, 4, 4))
        serial = _with_jobs(
            1, lambda: fig10.run(sizes=SIZES[:1], shapes=shapes))
        parallel = _with_jobs(
            4, lambda: fig10.run(sizes=SIZES[:1], shapes=shapes))
        assert serial.by_shape.keys() == parallel.by_shape.keys()
        for label in serial.by_shape:
            _assert_identical(serial.by_shape[label], parallel.by_shape[label])

    def test_fig11_points(self):
        serial = _with_jobs(1, lambda: fig11.run(sizes=SIZES[:1]))
        parallel = _with_jobs(4, lambda: fig11.run(sizes=SIZES[:1]))
        _assert_identical(serial.symmetric, parallel.symmetric)
        _assert_identical(serial.asymmetric_baseline,
                          parallel.asymmetric_baseline)
        _assert_identical(serial.asymmetric_enhanced,
                          parallel.asymmetric_enhanced)

    def test_fig12_points(self):
        serial = _with_jobs(1, lambda: fig12.run(size_bytes=SIZES[0]))
        parallel = _with_jobs(4, lambda: fig12.run(size_bytes=SIZES[0]))
        _assert_identical(serial.results, parallel.results)


class TestChaosJobsDeterminism:
    def test_report_identical_at_any_job_count(self):
        from repro.resilience.chaos import ChaosConfig, run_chaos

        config = ChaosConfig(iterations=3, seed=11, backends=("fast",))
        serial = run_chaos(config, executor=ParallelExecutor(jobs=1))
        with ParallelExecutor(jobs=3) as ex:
            parallel = run_chaos(config, executor=ex)
        assert [r.to_dict() for r in serial.runs] == [
            r.to_dict() for r in parallel.runs]
        assert serial.counts == parallel.counts
        assert serial.ok == parallel.ok
