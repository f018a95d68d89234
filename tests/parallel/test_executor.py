"""ParallelExecutor: ordering, fallbacks, failures, cache integration."""

import functools

import pytest

from _supervision_helpers import (
    alive,
    fail_first_sleep_rest,
    raise_once_sibling_started,
    report_pid_and_sleep,
    reported_pids,
    wait_for,
)
from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape
from repro.errors import ReproError, SimulationError
from repro.harness.runners import torus_platform
from repro.parallel.cache import RunCache
from repro.parallel.executor import (
    ParallelExecutor,
    RunPoint,
    configure_default,
    default_executor,
    set_default_executor,
)

KB64 = 64 * 1024.0


def _small_torus():
    return torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)


def _square(x):
    return x * x


def _raise_simulation_error():
    raise SimulationError("injected simulation failure")


def _results(outcomes):
    return [o.result for o in outcomes]


@pytest.fixture(autouse=True)
def _clean_default():
    yield
    set_default_executor(None)


class TestMap:
    def test_serial_map_keeps_order(self):
        outcomes = ParallelExecutor(jobs=1).map_outcomes(_square, [3, 1, 2])
        assert _results(outcomes) == [9, 1, 4]

    def test_parallel_map_keeps_order(self):
        with ParallelExecutor(jobs=2) as ex:
            assert _results(ex.map_outcomes(_square, list(range(6)))) == [
                x * x for x in range(6)]

    def test_unpicklable_fn_falls_back_in_process(self):
        captured = []

        def closure(x):
            captured.append(x)
            return -x

        outcomes = ParallelExecutor(jobs=4).map_outcomes(closure, [1, 2])
        assert _results(outcomes) == [-1, -2]
        assert captured == [1, 2]  # ran here, not in a worker

    def test_jobs_must_be_positive(self):
        with pytest.raises(ReproError):
            ParallelExecutor(jobs=0)


class TestRunPoints:
    def test_serial_points(self):
        ex = ParallelExecutor(jobs=1)
        points = [RunPoint(builder=_small_torus, op=CollectiveOp.ALL_REDUCE,
                           size_bytes=s) for s in (KB64, 2 * KB64)]
        results = ex.run_points(points)
        assert [r.size_bytes for r in results] == [KB64, 2 * KB64]
        assert ex.simulations_run == 2
        assert all(r.duration_cycles > 0 for r in results)

    def test_parallel_matches_serial_bit_for_bit(self):
        points = [RunPoint(builder=_small_torus, op=CollectiveOp.ALL_REDUCE,
                           size_bytes=s) for s in (KB64, 2 * KB64, 4 * KB64)]
        serial = ParallelExecutor(jobs=1).run_points(points)
        with ParallelExecutor(jobs=4) as ex:
            parallel = ex.run_points(points)
        for a, b in zip(serial, parallel):
            assert a.duration_cycles == b.duration_cycles
            assert a.breakdown.as_dict() == b.breakdown.as_dict()

    def test_unpicklable_builder_runs_in_parent(self):
        shape = TorusShape(2, 2, 2)
        points = [
            RunPoint(builder=lambda: torus_platform(shape,
                                                    preferred_set_splits=4),
                     op=CollectiveOp.ALL_REDUCE, size_bytes=KB64),
            RunPoint(builder=functools.partial(torus_platform, shape,
                                               preferred_set_splits=4),
                     op=CollectiveOp.ALL_REDUCE, size_bytes=KB64),
        ]
        with ParallelExecutor(jobs=2) as ex:
            results = ex.run_points(points)
        assert results[0].duration_cycles == results[1].duration_cycles

    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        points = [RunPoint(builder=_small_torus, op=CollectiveOp.ALL_REDUCE,
                           size_bytes=s) for s in (KB64, 2 * KB64)]
        cold = ParallelExecutor(jobs=1, cache=RunCache(str(tmp_path)))
        first = cold.run_points(points)
        assert cold.simulations_run == 2
        assert cold.cache.stats.stores == 2

        warm = ParallelExecutor(jobs=1, cache=RunCache(str(tmp_path)))
        second = warm.run_points(points)
        assert warm.simulations_run == 0
        assert warm.cache.stats.hits == 2
        for a, b in zip(first, second):
            assert a.duration_cycles == b.duration_cycles
            assert a.breakdown.as_dict() == b.breakdown.as_dict()

    def test_cached_point_builds_its_platform_once(self, tmp_path):
        """An in-parent run executes the spec built for its cache key."""
        built = []

        def builder():
            built.append(_small_torus())
            return built[-1]

        point = RunPoint(builder=builder, op=CollectiveOp.ALL_REDUCE, size_bytes=KB64)
        cached = ParallelExecutor(jobs=1, cache=RunCache(str(tmp_path))).run_points([point])
        assert len(built) == 1
        uncached = ParallelExecutor(jobs=1).run_points([point])
        assert cached[0].duration_cycles == uncached[0].duration_cycles

    def test_sanitized_points_bypass_the_cache(self, tmp_path):
        ex = ParallelExecutor(jobs=1, cache=RunCache(str(tmp_path)))
        point = RunPoint(builder=_small_torus, op=CollectiveOp.ALL_REDUCE,
                         size_bytes=KB64, sanitize=True)
        ex.run_points([point])
        ex.run_points([point])
        assert ex.simulations_run == 2
        assert ex.cache.stats.stores == 0


class TestPickleClassification:
    """Genuine unpicklability degrades (logged once); broken
    ``__getstate__`` propagates instead of silently running serial."""

    def test_lambda_degrades_with_one_logged_warning(self, caplog):
        with caplog.at_level("WARNING", logger="repro.parallel"):
            with ParallelExecutor(jobs=2) as ex:
                assert _results(ex.map_outcomes(lambda x: x + 1,
                                                [1, 2, 3])) == [2, 3, 4]
                assert _results(ex.map_outcomes(lambda x: x * 2,
                                                [1, 2, 3])) == [2, 4, 6]
        degradations = [r for r in caplog.records
                        if "not picklable" in r.message]
        assert len(degradations) == 1  # once per executor, not per batch

    def test_broken_getstate_propagates(self):
        class Exploding:
            def __getstate__(self):
                raise RuntimeError("corrupted handle")

            def __call__(self, x):
                return x

        with ParallelExecutor(jobs=2) as ex:
            with pytest.raises(RuntimeError, match="corrupted handle"):
                ex.map_outcomes(Exploding(), [1, 2])


class TestUnsupervisedFailures:
    """Without a policy a failing point raises its own exception — no
    retry, quarantine or ``PoisonPointError`` — and no slot worker
    outlives the call."""

    @staticmethod
    def _assert_sleeper_reaped(pid_dir):
        sleepers = reported_pids(pid_dir)
        assert len(sleepers) == 1
        assert wait_for(lambda: not alive(sleepers[0]), 5.0), (
            "the in-flight slot worker outlived the failed batch")

    def test_slot_error_raises_from_run_points(self, tmp_path):
        pid_dir = str(tmp_path)
        points = [
            RunPoint(builder=functools.partial(raise_once_sibling_started,
                                               pid_dir),
                     op=CollectiveOp.ALL_REDUCE, size_bytes=KB64),
            RunPoint(builder=functools.partial(report_pid_and_sleep, pid_dir, 1),
                     op=CollectiveOp.ALL_REDUCE, size_bytes=KB64),
        ]
        with ParallelExecutor(jobs=2) as ex:
            with pytest.raises(SimulationError, match="injected simulation"):
                ex.run_points(points)
            self._assert_sleeper_reaped(pid_dir)
        assert ex.quarantine == [] and ex.attempts_total == 0

    def test_slot_error_raises_from_map_outcomes(self, tmp_path):
        pid_dir = str(tmp_path)
        job = functools.partial(fail_first_sleep_rest, pid_dir)
        with ParallelExecutor(jobs=2) as ex:
            with pytest.raises(SimulationError, match="injected simulation"):
                ex.map_outcomes(job, [0, 1])
            self._assert_sleeper_reaped(pid_dir)

    @pytest.mark.parametrize("jobs,count", [(1, 2), (2, 1)])
    def test_parent_error_raises(self, jobs, count):
        points = [RunPoint(builder=_raise_simulation_error,
                           op=CollectiveOp.ALL_REDUCE, size_bytes=KB64)
                  ] * count
        ex = ParallelExecutor(jobs=jobs)
        with pytest.raises(SimulationError, match="injected simulation"):
            ex.run_points(points)
        with pytest.raises(SimulationError, match="injected simulation"):
            ex.map_outcomes(lambda x: _raise_simulation_error(), [0] * count)
        assert ex._slots is None  # ran in the parent: no slot


class TestDefaultExecutor:
    def test_unset_default_is_serial_uncached(self):
        ex = default_executor()
        assert ex.jobs == 1 and ex.cache is None

    def test_configure_default_installs(self, tmp_path):
        ex = configure_default(jobs=3, cache_dir=str(tmp_path))
        assert default_executor() is ex
        assert ex.jobs == 3 and ex.cache is not None

    def test_no_cache_wins_over_cache_dir(self, tmp_path):
        ex = configure_default(jobs=1, cache_dir=str(tmp_path),
                               use_cache=False)
        assert ex.cache is None
