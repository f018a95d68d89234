"""Supervised ParallelExecutor: crash isolation, deadlines, quarantine, resume.

The injectors live in ``_supervision_helpers`` (module-level, so they
pickle into pool workers) and kill/hang only the worker process they run
in — never the test process.
"""

import dataclasses
import functools
import json
import os
import time

import pytest

from repro.collectives.types import CollectiveOp
from repro.errors import ConfigError, PoisonPointError
from repro.parallel.cache import RunCache
from repro.parallel.executor import (
    ParallelExecutor,
    PointStatus,
    RunPoint,
    configure_default,
    exit_code_for,
    set_default_executor,
)
from repro.parallel.supervisor import (
    OutcomeJournal,
    SupervisionPolicy,
    quarantine_summary,
    write_quarantine_report,
)

from _supervision_helpers import (
    always_crash_builder,
    always_raise_builder,
    crash_once_builder,
    crash_once_then,
    hang_builder,
    hang_forever,
    small_torus,
)

KB64 = 64 * 1024.0

#: Generous wall-clock deadline for tests whose hung point sleeps 60s:
#: long enough that a loaded CI box never reaps a genuine simulation.
DEADLINE_S = 20.0


@pytest.fixture(autouse=True)
def _clean_default():
    yield
    set_default_executor(None)


def _points(sizes, builder=small_torus):
    return [RunPoint(builder=builder, op=CollectiveOp.ALL_REDUCE,
                     size_bytes=float(s)) for s in sizes]


class TestPolicy:
    def test_defaults_are_valid(self):
        policy = SupervisionPolicy()
        assert policy.max_retries == 2
        assert policy.on_poison == "quarantine"

    @pytest.mark.parametrize("kwargs", [
        {"point_timeout_s": 0.0},
        {"point_timeout_s": -1.0},
        {"point_event_budget": 0},
        {"max_retries": -1},
        {"backoff_factor": 0.5},
        {"on_poison": "explode"},
        {"poll_interval_s": 0.0},
    ])
    def test_bad_knobs_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            SupervisionPolicy(**kwargs)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = SupervisionPolicy(backoff_max_s=0.25)
        first = policy.backoff_s("key", 1)
        assert first == policy.backoff_s("key", 1)
        assert policy.backoff_s("key", 2) != first  # new attempt, new draw
        assert all(0 <= policy.backoff_s("k", a) <= 0.25
                   for a in (1, 2, 3, 8))


class TestNoFaultPath:
    def test_bit_identical_to_plain_executor(self):
        points = _points([KB64, 2 * KB64, 4 * KB64])
        plain = ParallelExecutor(jobs=1).run_points(points)
        with ParallelExecutor(jobs=2, policy=SupervisionPolicy()) as ex:
            outcomes = ex.run_outcomes(points)
        assert [o.status for o in outcomes] == [PointStatus.OK] * 3
        assert ex.quarantine == []
        for a, o in zip(plain, outcomes):
            assert a.duration_cycles == o.result.duration_cycles
            assert a.breakdown.as_dict() == o.result.breakdown.as_dict()
        assert exit_code_for(outcomes) == 0

    def test_run_points_returns_plain_results(self):
        points = _points([KB64])
        with ParallelExecutor(jobs=1, policy=SupervisionPolicy()) as ex:
            results = ex.run_points(points)
        assert results[0].duration_cycles > 0

    def test_warm_cache_serves_without_slots(self, tmp_path):
        points = _points([KB64])
        with ParallelExecutor(jobs=1, cache=RunCache(str(tmp_path)),
                              policy=SupervisionPolicy()) as ex:
            first = ex.run_outcomes(points)
            assert ex.simulations_run == 1
            second = ex.run_outcomes(points)
        assert second[0].from_cache and second[0].status is PointStatus.OK
        assert ex.simulations_run == 1
        assert (first[0].result.duration_cycles
                == second[0].result.duration_cycles)


class TestCrashIsolation:
    def test_sigkilled_worker_mid_batch_retries_bit_identical(self, tmp_path):
        """Satellite: a SIGKILLed pool worker mid-batch must not abort
        the batch, and the retried point must match a clean run bit for
        bit."""
        clean = ParallelExecutor(jobs=1).run_points(_points([KB64, 2 * KB64]))

        crasher = functools.partial(crash_once_builder,
                                    str(tmp_path / "armed"))
        points = [RunPoint(builder=crasher, op=CollectiveOp.ALL_REDUCE,
                           size_bytes=KB64),
                  RunPoint(builder=small_torus, op=CollectiveOp.ALL_REDUCE,
                           size_bytes=2 * KB64)]
        with ParallelExecutor(jobs=2, policy=SupervisionPolicy()) as ex:
            outcomes = ex.run_outcomes(points)

        assert outcomes[0].status is PointStatus.RETRIED
        assert outcomes[0].attempts == 2
        assert outcomes[1].status is PointStatus.OK
        assert ex.quarantine == []
        for reference, outcome in zip(clean, outcomes):
            assert (reference.duration_cycles
                    == outcome.result.duration_cycles)
            assert (reference.breakdown.as_dict()
                    == outcome.result.breakdown.as_dict())
        assert exit_code_for(outcomes) == 0

    def test_broken_pool_retry_exhaustion_quarantines_not_aborts(self):
        """Satellite: a point that kills its worker every attempt lands
        in quarantine; the rest of the batch still completes."""
        points = [RunPoint(builder=always_crash_builder,
                           op=CollectiveOp.ALL_REDUCE, size_bytes=KB64),
                  RunPoint(builder=small_torus, op=CollectiveOp.ALL_REDUCE,
                           size_bytes=KB64)]
        policy = SupervisionPolicy(max_retries=1, backoff_max_s=0.05)
        with ParallelExecutor(jobs=2, policy=policy) as ex:
            outcomes = ex.run_outcomes(points)

        assert outcomes[0].status is PointStatus.CRASHED
        assert outcomes[0].attempts == 2  # initial + 1 retry
        assert outcomes[0].failure_class == "crash"
        assert outcomes[1].status is PointStatus.OK
        assert len(ex.quarantine) == 1
        assert ex.quarantine[0].failure_class == "crash"
        assert exit_code_for(outcomes) == 1

    def test_in_simulation_error_classifies_as_error(self):
        points = [RunPoint(builder=always_raise_builder,
                           op=CollectiveOp.ALL_REDUCE, size_bytes=KB64)]
        policy = SupervisionPolicy(max_retries=0)
        with ParallelExecutor(jobs=1, policy=policy) as ex:
            outcomes = ex.run_outcomes(points)
        assert outcomes[0].status is PointStatus.FAILED
        assert outcomes[0].failure_class == "error"
        assert "injected builder failure" in outcomes[0].error


class TestDeadlines:
    def test_hung_point_is_reaped_and_quarantined(self):
        points = [RunPoint(builder=hang_builder, op=CollectiveOp.ALL_REDUCE,
                           size_bytes=KB64),
                  RunPoint(builder=small_torus, op=CollectiveOp.ALL_REDUCE,
                           size_bytes=KB64)]
        policy = SupervisionPolicy(point_timeout_s=2.0, max_retries=0)
        with ParallelExecutor(jobs=2, policy=policy) as ex:
            outcomes = ex.run_outcomes(points)
        assert outcomes[0].status is PointStatus.TIMEOUT
        assert outcomes[0].failure_class == "timeout"
        assert outcomes[1].status is PointStatus.OK
        assert exit_code_for(outcomes) == 1

    def test_event_budget_quarantines_runaway_point(self):
        policy = SupervisionPolicy(point_event_budget=20, max_retries=0)
        with ParallelExecutor(jobs=1, policy=policy) as ex:
            outcomes = ex.run_outcomes(_points([KB64]))
        assert outcomes[0].status is PointStatus.FAILED
        assert outcomes[0].failure_class == "event-budget"

    def test_on_poison_fail_raises(self):
        points = [RunPoint(builder=always_crash_builder,
                           op=CollectiveOp.ALL_REDUCE, size_bytes=KB64)]
        policy = SupervisionPolicy(max_retries=0, on_poison="fail")
        with ParallelExecutor(jobs=1, policy=policy) as ex:
            with pytest.raises(PoisonPointError):
                ex.run_outcomes(points)


class TestQuarantineReport:
    def test_bundle_written_in_watchdog_format(self, tmp_path):
        points = [RunPoint(builder=always_crash_builder,
                           op=CollectiveOp.ALL_REDUCE, size_bytes=KB64)]
        policy = SupervisionPolicy(max_retries=0)
        with ParallelExecutor(jobs=1, policy=policy,
                              quarantine_dir=str(tmp_path)) as ex:
            outcomes = ex.run_outcomes(points)
        bundle_path = outcomes[0].bundle_path
        assert bundle_path and bundle_path.endswith(".json")
        with open(bundle_path) as f:
            bundle = json.load(f)
        assert bundle["kind"] == "poison-point"
        assert bundle["failure_class"] == "crash"
        assert bundle["attempts"] == 1
        # Same serialized shape as the PR 4 watchdog bundles.
        with open(bundle_path) as f:
            raw = f.read()
        assert raw == json.dumps(bundle, indent=2, sort_keys=True) + "\n"

    def test_report_file_lists_every_poison_point(self, tmp_path):
        points = [RunPoint(builder=always_crash_builder,
                           op=CollectiveOp.ALL_REDUCE, size_bytes=KB64)]
        policy = SupervisionPolicy(max_retries=0)
        with ParallelExecutor(jobs=1, policy=policy) as ex:
            ex.run_outcomes(points)
        path = write_quarantine_report(str(tmp_path / "report.json"),
                                       policy, ex.quarantine)
        with open(path) as f:
            report = json.load(f)
        assert report["kind"] == "quarantine-report"
        assert report["policy"]["max_retries"] == 0
        assert len(report["quarantined"]) == 1
        assert report["quarantined"][0]["failure_class"] == "crash"
        assert "poison point" in quarantine_summary(ex.quarantine)


class TestJournalResume:
    def test_resume_skips_completed_and_quarantined(self, tmp_path):
        """Acceptance: an interrupted campaign's journal lets a re-run
        skip past completed AND quarantined points without simulating
        either."""
        journal = str(tmp_path / "journal.jsonl")
        points = [RunPoint(builder=small_torus, op=CollectiveOp.ALL_REDUCE,
                           size_bytes=KB64),
                  RunPoint(builder=always_crash_builder,
                           op=CollectiveOp.ALL_REDUCE, size_bytes=KB64)]
        policy = SupervisionPolicy(max_retries=0)
        with ParallelExecutor(jobs=1, policy=policy,
                              journal_path=journal) as ex:
            first = ex.run_outcomes(points)
        assert first[0].status is PointStatus.OK
        assert first[1].status is PointStatus.CRASHED

        with ParallelExecutor(jobs=1, policy=policy,
                              journal_path=journal) as resumed:
            second = resumed.run_outcomes(points)
        assert resumed.simulations_run == 0
        assert resumed.attempts_total == 0
        assert second[0].from_journal
        assert second[0].status is PointStatus.OK
        assert (second[0].result.duration_cycles
                == first[0].result.duration_cycles)
        assert second[1].from_journal
        assert second[1].status is PointStatus.QUARANTINED
        assert second[1].failure_class == "crash"
        assert exit_code_for(second) == 1

    def test_journal_tolerates_torn_tail_line(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = OutcomeJournal(path)
        journal.append({"type": "outcome", "key": "k1", "status": "ok"})
        with open(path, "a") as f:
            f.write('{"type": "outcome", "key": "k2", "stat')  # torn write
        records = OutcomeJournal.load(path)
        assert set(records) == {"k1"}

    def test_journal_keeps_last_record_per_key(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = OutcomeJournal(path)
        journal.append({"key": "k", "status": "crashed"})
        journal.append({"key": "k", "status": "ok"})
        assert OutcomeJournal.load(path)["k"]["status"] == "ok"


class TestJournalSharedPath:
    """Shared-journal misuse: concurrent writers must serialize whole
    lines or fail fast with a clear diagnostic — never interleave."""

    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        """Four processes appending to one journal simultaneously: every
        line parses, and every record from every writer is present."""
        from concurrent.futures import ProcessPoolExecutor

        from _supervision_helpers import append_journal_lines

        path = str(tmp_path / "journal.jsonl")
        writers, lines_each = 4, 50
        with ProcessPoolExecutor(max_workers=writers) as pool:
            futures = [pool.submit(append_journal_lines, path, w, lines_each)
                       for w in range(writers)]
            assert sorted(f.result() for f in futures) == list(range(writers))
        with open(path) as f:
            raw = f.readlines()
        assert len(raw) == writers * lines_each
        records = [json.loads(line) for line in raw]  # every line whole
        seen = {(r["writer"], r["seq"]) for r in records}
        assert len(seen) == writers * lines_each
        assert len(OutcomeJournal.load(path)) == writers * lines_each

    def test_exclusive_lock_fails_fast_naming_live_owner(self, tmp_path):
        """A second exclusive writer against a journal held by a LIVE
        process gets a ConfigError naming the owner pid, not silent
        sharing."""
        from concurrent.futures import ProcessPoolExecutor

        from _supervision_helpers import hold_journal_lock

        path = str(tmp_path / "journal.jsonl")
        acquired = str(tmp_path / "acquired")
        release = str(tmp_path / "release")
        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(hold_journal_lock, path, acquired, release)
            try:
                deadline = time.monotonic() + DEADLINE_S
                while not os.path.exists(acquired):
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                with open(acquired) as f:
                    owner_pid = int(f.read())
                with pytest.raises(ConfigError) as excinfo:
                    OutcomeJournal(path, exclusive=True)
                assert str(owner_pid) in str(excinfo.value)
                assert "its own journal" in str(excinfo.value)
            finally:
                with open(release, "w") as f:
                    f.write("go")
            assert future.result() == owner_pid
        # Owner released: the lock is free for the next daemon.
        OutcomeJournal(path, exclusive=True).close()

    def test_stale_lock_from_dead_owner_is_reclaimed(self, tmp_path):
        """A lock left by a SIGKILLed daemon (dead pid) must not block a
        restart — the acceptance crash-recovery path depends on it."""
        import subprocess
        import sys

        path = str(tmp_path / "journal.jsonl")
        dead = subprocess.run([sys.executable, "-c",
                               "import os; print(os.getpid())"],
                              capture_output=True, text=True, check=True)
        dead_pid = int(dead.stdout)
        with open(f"{path}.lock", "w") as f:
            f.write(f"{dead_pid}\n")
        journal = OutcomeJournal(path, exclusive=True)  # reclaims, no raise
        with open(f"{path}.lock") as f:
            assert int(f.read()) == os.getpid()
        journal.close()
        assert not os.path.exists(f"{path}.lock")

    def test_unreadable_lock_is_treated_as_stale(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(f"{path}.lock", "w") as f:
            f.write("not-a-pid")
        OutcomeJournal(path, exclusive=True).close()

    def test_newer_schema_records_replay_as_empty(self, tmp_path):
        """A journal written by FUTURE code must not resume from
        misunderstood state: other-schema records are skipped, current
        ones still load."""
        from repro.parallel.supervisor import JOURNAL_SCHEMA

        path = str(tmp_path / "journal.jsonl")
        OutcomeJournal(path).append({"type": "outcome", "key": "old",
                                     "status": "ok"})
        with open(path, "a") as f:
            f.write(json.dumps({"schema": JOURNAL_SCHEMA + 1,
                                "type": "outcome", "key": "future",
                                "status": "ok"}) + "\n")
            f.write(json.dumps({"type": "outcome", "key": "versionless",
                                "status": "ok"}) + "\n")
        loaded = OutcomeJournal.load(path)
        assert set(loaded) == {"old"}
        assert [r["key"] for r in OutcomeJournal.load_records(path)] == ["old"]

    def test_job_records_do_not_shadow_outcomes(self, tmp_path):
        """The serve daemon journals "job" submission records into the
        same file; load() must keep returning the outcome for a key."""
        path = str(tmp_path / "journal.jsonl")
        journal = OutcomeJournal(path)
        journal.append({"type": "outcome", "key": "k", "status": "ok",
                        "payload": {"x": 1}})
        journal.append({"type": "job", "key": "k", "job_id": "job-1"})
        loaded = OutcomeJournal.load(path)
        assert loaded["k"]["type"] == "outcome"
        types = [r["type"] for r in OutcomeJournal.load_records(path)]
        assert types == ["outcome", "job"]  # full stream keeps both

    def test_non_exclusive_journals_do_not_lock(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        OutcomeJournal(path).append({"key": "k", "status": "ok"})
        assert not os.path.exists(f"{path}.lock")


class TestMapOutcomes:
    def test_supervised_map_quarantines_and_continues(self):
        from _supervision_helpers import hang_if_two

        policy = SupervisionPolicy(point_timeout_s=2.0, max_retries=0)
        with ParallelExecutor(jobs=2, policy=policy) as ex:
            outcomes = ex.map_outcomes(hang_if_two, [0, 1, 2, 3])
        assert [o.result for o in outcomes] == [0, 1, None, 9]
        assert outcomes[2].status is PointStatus.TIMEOUT

    def test_free_slot_refills_while_a_sibling_is_busy(self):
        """A slot that finishes early takes the next item at once: every
        instant item completes before the long one, although the loop's
        poll tick (0.5 s) would let only about four through if the idle
        wait returned only when every busy slot had finished."""
        from _supervision_helpers import clock_after

        policy = SupervisionPolicy(poll_interval_s=0.5)
        with ParallelExecutor(jobs=2, policy=policy) as ex:
            outcomes = ex.map_outcomes(clock_after, range(21))
        assert all(o.status is PointStatus.OK for o in outcomes)
        finished = [o.result for o in outcomes]
        late = [i for i, t in enumerate(finished[1:], 1) if t >= finished[0]]
        assert not late, f"instant items {late} waited for the long one"

    def test_unpicklable_fn_runs_in_parent(self):
        with ParallelExecutor(jobs=2, policy=SupervisionPolicy()) as ex:
            outcomes = ex.map_outcomes(lambda x: -x, [1, 2])
        assert [o.result for o in outcomes] == [-1, -2]
        assert all(o.status is PointStatus.OK for o in outcomes)


class TestFig09Acceptance:
    """Acceptance: injected worker crash and injected hang during a
    fig09 batch both finish the batch."""

    SIZES = [KB64, 2 * KB64]

    def _clean_figure(self):
        from repro.harness import fig09

        results = ParallelExecutor(jobs=1).run_points(
            fig09._points(self.SIZES, CollectiveOp.ALL_REDUCE))
        return fig09._split(CollectiveOp.ALL_REDUCE, self.SIZES, results)

    def test_crash_mid_fig09_batch_retries_bit_identical(self, tmp_path):
        from repro.harness import fig09
        from repro.parallel.executor import results_with_gaps

        clean = self._clean_figure()
        points = fig09._points(self.SIZES, CollectiveOp.ALL_REDUCE)
        points[0] = dataclasses.replace(
            points[0],
            builder=functools.partial(crash_once_then,
                                      str(tmp_path / "armed"),
                                      fig09._alltoall))
        with ParallelExecutor(jobs=2, policy=SupervisionPolicy()) as ex:
            outcomes = ex.run_outcomes(points)

        assert [o.status for o in outcomes] == [
            PointStatus.RETRIED, PointStatus.OK, PointStatus.OK,
            PointStatus.OK]
        figure = fig09._split(CollectiveOp.ALL_REDUCE, self.SIZES,
                              results_with_gaps(outcomes))
        assert figure.complete
        assert figure.rows() == clean.rows()
        assert exit_code_for(outcomes) == 0

    def test_hang_mid_fig09_batch_quarantines_and_resumes(self, tmp_path):
        from repro.harness import fig09
        from repro.parallel.executor import results_with_gaps

        journal = str(tmp_path / "journal.jsonl")
        points = fig09._points(self.SIZES, CollectiveOp.ALL_REDUCE)
        points[2] = dataclasses.replace(
            points[2],
            builder=functools.partial(hang_forever, fig09._torus))
        policy = SupervisionPolicy(point_timeout_s=2.0, max_retries=0)
        with ParallelExecutor(jobs=2, policy=policy,
                              journal_path=journal) as ex:
            outcomes = ex.run_outcomes(points)

        assert outcomes[2].status is PointStatus.TIMEOUT
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert len(ex.quarantine) == 1
        assert exit_code_for(outcomes) == 1

        figure = fig09._split(CollectiveOp.ALL_REDUCE, self.SIZES,
                              results_with_gaps(outcomes))
        assert not figure.complete
        rows = figure.rows()
        assert rows[0]["torus_cycles"] is None  # the quarantined point
        assert rows[0]["alltoall_cycles"] is not None
        assert rows[1]["torus_over_alltoall"] is not None

        # Resume past completed AND quarantined points: zero simulations.
        with ParallelExecutor(jobs=2, policy=policy,
                              journal_path=journal) as resumed:
            second = resumed.run_outcomes(points)
        assert resumed.simulations_run == 0
        assert all(o.from_journal for o in second)
        assert second[2].status is PointStatus.QUARANTINED
        assert (second[0].result.duration_cycles
                == outcomes[0].result.duration_cycles)


class TestConfigureDefault:
    def test_supervision_knobs_build_supervised_executor(self, tmp_path):
        ex = configure_default(jobs=2,
                               supervision=SupervisionPolicy(max_retries=1),
                               journal_path=str(tmp_path / "j.jsonl"))
        assert ex.policy is not None
        assert ex.policy.max_retries == 1
        ex.close()

    @pytest.mark.parametrize("path_kwarg", ["journal_path", "quarantine_dir"])
    def test_a_journal_or_quarantine_path_implies_supervision(
            self, tmp_path, path_kwarg):
        ex = configure_default(jobs=2, **{path_kwarg: str(tmp_path / "p")})
        assert ex.policy == SupervisionPolicy()
        ex.close()

    def test_plain_knobs_build_plain_executor(self):
        ex = configure_default(jobs=2)
        assert ex.policy is None
        ex.close()
