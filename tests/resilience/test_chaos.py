"""The chaos harness: seeded, classified, never silently hung."""

import random

import pytest

from repro.config.parameters import TorusShape
from repro.errors import CollectiveError, ReproError, SimulationError, StallError, TransportError
from repro.harness.runners import torus_platform
from repro.resilience.chaos import (
    ChaosConfig,
    Outcome,
    _classify,
    fuzz_schedule,
    fuzz_transport,
    run_chaos,
)


class TestCampaign:
    def test_small_fast_campaign_all_classified(self):
        report = run_chaos(ChaosConfig(iterations=8, seed=7,
                                       backends=("fast",)))
        assert len(report.runs) == 8
        assert report.ok, report.format()
        assert all(run.outcome is not Outcome.FAILURE for run in report.runs)

    def test_detailed_backend_iteration(self):
        report = run_chaos(ChaosConfig(iterations=2, seed=3,
                                       backends=("detailed",)))
        assert report.ok, report.format()
        assert all(run.backend == "detailed" for run in report.runs)

    def test_campaign_is_deterministic(self):
        config = ChaosConfig(iterations=6, seed=11, backends=("fast",))
        a = run_chaos(config).to_dict()
        b = run_chaos(config).to_dict()
        assert a == b

    def test_report_round_trips_to_json(self):
        import json

        report = run_chaos(ChaosConfig(iterations=2, seed=0,
                                       backends=("fast",)))
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()
        assert "verdict" in report.format()

    @pytest.mark.parametrize("kwargs", [
        {"iterations": 0},
        {"backends": ()},
        {"backends": ("fast", "imaginary")},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ReproError):
            ChaosConfig(**kwargs)


class TestFuzzers:
    def fabric(self):
        spec = torus_platform(TorusShape(2, 2, 2))
        return spec.topology_builder(spec.config.system).fabric

    def test_fuzzed_schedule_installs_against_fabric(self):
        """Every fuzzed schedule must reference only real links/nodes."""
        from repro.events.engine import EventQueue

        fabric = self.fabric()
        pairs = sorted({(l.src, l.dst) for l in fabric.links})
        for i in range(20):
            schedule = fuzz_schedule(random.Random(i), pairs, fabric.num_npus)
            schedule.install(fabric, EventQueue())  # raises on a bad ref

    def test_fuzzers_are_seed_deterministic(self):
        fabric = self.fabric()
        pairs = sorted({(l.src, l.dst) for l in fabric.links})
        s1 = fuzz_schedule(random.Random(42), pairs, fabric.num_npus)
        s2 = fuzz_schedule(random.Random(42), pairs, fabric.num_npus)
        assert s1.to_dict() == s2.to_dict()
        assert fuzz_transport(random.Random(42)) == fuzz_transport(
            random.Random(42))


class TestClassification:
    @pytest.mark.parametrize("exc,expected", [
        (StallError("no progress"), Outcome.STALL),
        (CollectiveError("phase 2 stuck"), Outcome.GRACEFUL_FAILURE),
        (TransportError("gave up"), Outcome.GRACEFUL_FAILURE),
        (SimulationError("deadlock\nwait-for summary at t=1: ..."),
         Outcome.DIAGNOSED_DEADLOCK),
        (SimulationError("exceeded max_events=5 (possible livelock)"),
         Outcome.FAILURE),
        (RuntimeError("boom"), Outcome.FAILURE),
    ])
    def test_classify(self, exc, expected):
        outcome, detail = _classify(exc)
        assert outcome is expected
        assert detail
