"""RunProfile phase timing and the BENCH_* perf-trajectory documents."""

import pytest

from repro.errors import ReproError
from repro.profiling.profiler import (
    RunProfile,
    active_profile,
    compare_bench,
    read_bench,
    set_active_profile,
    write_bench,
)


class TestRunProfile:
    def test_phases_accumulate(self):
        profile = RunProfile(name="t")
        with profile.phase("build"):
            pass
        profile.add_phase("simulate", 2.0)
        profile.add_phase("simulate", 1.0)
        assert profile.seconds_of("simulate") == 3.0
        assert profile.total_seconds >= 3.0

    def test_events_per_sec_uses_simulate_phase(self):
        profile = RunProfile(name="t", events=600)
        profile.add_phase("build", 100.0)
        profile.add_phase("simulate", 3.0)
        assert profile.events_per_sec == pytest.approx(200.0)

    def test_events_per_sec_falls_back_to_total(self):
        profile = RunProfile(name="t", events=50)
        profile.add_phase("command", 5.0)
        assert profile.events_per_sec == pytest.approx(10.0)

    def test_record_system(self):
        from repro.collectives.types import CollectiveOp
        from repro.config.parameters import TorusShape
        from repro.harness.runners import torus_platform

        spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
        system = spec.build_system()
        system.request_collective(CollectiveOp.ALL_REDUCE, 64 * 1024.0)
        system.run_until_idle(max_events=10_000_000)
        profile = RunProfile(name="t")
        profile.record_system(system)
        assert profile.events > 0
        assert profile.cycles > 0
        # Modeled messages: 8 NPUs x 4 chunks x 3 phases x 2 steps (one
        # reduce-scatter and one all-gather step on each 2-node ring).
        assert profile.messages == 192

    def test_active_profile_roundtrip(self):
        assert active_profile() is None
        profile = RunProfile(name="t")
        set_active_profile(profile)
        try:
            assert active_profile() is profile
        finally:
            set_active_profile(None)


class TestBenchDocuments:
    def _doc(self, events_per_sec):
        profile = RunProfile(name="bench", events=int(events_per_sec))
        profile.add_phase("simulate", 1.0)
        return [profile.as_dict()]

    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH.json")
        write_bench(path, self._doc(1000.0), label="x")
        doc = read_bench(path)
        assert doc["label"] == "x"
        assert doc["benchmarks"][0]["events_per_sec"] == pytest.approx(1000.0)

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ReproError):
            read_bench(str(path))
        path.write_text('{"schema": 999}')
        with pytest.raises(ReproError):
            read_bench(str(path))

    def test_compare_flags_regression(self):
        baseline = {"benchmarks": self._doc(1000.0)}
        fine = {"benchmarks": self._doc(850.0)}
        slow = {"benchmarks": self._doc(700.0)}
        assert compare_bench(baseline, fine, max_regression=0.20) == []
        messages = compare_bench(baseline, slow, max_regression=0.20)
        assert len(messages) == 1 and "below baseline" in messages[0]

    def test_compare_gates_on_messages_when_recorded(self):
        def doc(messages_per_sec, events_per_sec):
            return {"benchmarks": [{"name": "bench",
                                    "messages_per_sec": messages_per_sec,
                                    "events_per_sec": events_per_sec}]}

        baseline = doc(1000.0, 1000.0)
        # Fewer events per second but as many messages: no regression.
        assert compare_bench(baseline, doc(1000.0, 10.0)) == []
        messages = compare_bench(baseline, doc(700.0, 1000.0))
        assert len(messages) == 1 and "messages/sec" in messages[0]

    def test_compare_ignores_new_benchmarks(self):
        baseline = {"benchmarks": []}
        current = {"benchmarks": self._doc(10.0)}
        assert compare_bench(baseline, current) == []

    def test_compare_validates_tolerance(self):
        with pytest.raises(ReproError):
            compare_bench({"benchmarks": []}, {"benchmarks": []},
                          max_regression=1.5)
