"""Tests for the schedule-perturbation race detector."""

import json

from repro.config.parameters import TorusShape
from repro.harness import fig09, fig12
from repro.harness.runners import torus_platform
from repro.sanitize.findings import Severity
from repro.sanitize.schedule import (
    InjectedRaceProbe,
    SeededTieBreak,
    payload_diff,
    run_schedule_trials,
    trial_seed,
)


class _CommutativeProbe:
    """Order-insensitive fixture: sums indices (addition commutes)."""

    label = "commutative"

    def run(self, queue, on_system=None):
        acc = []
        for i in range(6):
            queue.schedule_at(10.0, lambda i=i: acc.append(i))
        queue.run()
        return {"total": sum(acc), "final_time": queue.now}


class _RacySystemProbe:
    """Order-sensitive events on a real System, to exercise the
    watchdog-format state bundle (wait_for + diagnostics) in bisection."""

    label = "racy-system"

    def run(self, queue, on_system=None):
        platform = torus_platform(TorusShape(2, 2, 2))
        system = platform.build_system(events=queue)
        if on_system is not None:
            on_system(system)
        acc = []
        for i in range(4):
            queue.schedule_at(5.0, lambda i=i: acc.append(i))
        system.run_until_idle()
        digest = 0
        for i in acc:
            digest = digest * 31 + i
        return {"digest": digest}


class TestSeedDerivation:
    def test_trial_seeds_deterministic_and_distinct(self):
        seeds = [trial_seed(2020, t) for t in range(1, 9)]
        assert seeds == [trial_seed(2020, t) for t in range(1, 9)]
        assert len(set(seeds)) == 8

    def test_tie_break_is_pythonhashseed_free(self):
        """Ranks come from splitmix64, not hash() — fixed values forever."""
        breaker = SeededTieBreak(1)
        assert breaker(0.0, 0) == breaker(123.0, 0)  # time not mixed in
        assert breaker(0.0, 0) != breaker(0.0, 1)


class TestIdenticalOutcome:
    def test_commutative_probe_is_identical(self):
        report = run_schedule_trials(_CommutativeProbe(), trials=4)
        assert report.identical
        assert report.divergence is None
        assert len(report.outcomes) == 5  # baseline + 4 permutations
        fingerprints = {o.fingerprint for o in report.outcomes}
        assert len(fingerprints) == 1
        assert report.to_findings().ok()
        assert "bit-identical" in report.summary()

    def test_report_serializes(self):
        report = run_schedule_trials(_CommutativeProbe(), trials=2)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["identical"] is True
        assert data["divergence"] is None
        assert len(data["outcomes"]) == 3


class TestDivergenceDetection:
    def test_injected_race_is_caught_and_bisected(self):
        report = run_schedule_trials(InjectedRaceProbe(), trials=4)
        assert not report.identical
        div = report.divergence
        assert div is not None
        # The race is at the very first permuted event: FIFO fires seq 0
        # first, the permutation fires some other seq.
        assert div.first_divergence_index == 0
        assert div.baseline_event["seq"] == 0
        assert div.diverging_event["seq"] != 0
        assert div.baseline_event["time"] == div.diverging_event["time"]
        assert div.payload_diff == ["digest"]
        assert "schedule race" in report.summary()

    def test_divergence_stops_trials_early(self):
        report = run_schedule_trials(InjectedRaceProbe(), trials=8)
        assert len(report.outcomes) == 2  # baseline + first diverging trial

    def test_divergent_findings_gate_exit_code(self):
        findings = run_schedule_trials(
            InjectedRaceProbe(), trials=2).to_findings()
        assert not findings.ok()
        assert findings.errors[0].code == "schedule-divergence"
        assert findings.errors[0].severity is Severity.ERROR

    def test_snapshot_state_in_bundle(self):
        report = run_schedule_trials(InjectedRaceProbe(), trials=2)
        state = report.divergence.baseline_state
        assert state["events_processed"] == 0  # stopped before the race
        assert state["diagnostics"]["fired_order"] == []

    def test_system_probe_bundles_watchdog_format(self):
        report = run_schedule_trials(_RacySystemProbe(), trials=4)
        assert not report.identical
        for state in (report.divergence.baseline_state,
                      report.divergence.diverging_state):
            assert "wait-for summary" in state["wait_for"]
            assert "progress_vector" in state["diagnostics"]
        # The bundle is JSON-serializable like a watchdog stall bundle.
        json.dumps(report.to_dict())


class TestHarnessProbes:
    def test_fig09_probe_batch(self):
        labels = [p.label for p in fig09.schedule_probes()]
        assert len(labels) == 6
        assert all(label.startswith("fig09/") for label in labels)
        assert "fig09/alltoall-2x4-s2/allreduce" in labels
        assert "fig09/alltoall-1x8-s4/allreduce" in labels

    def test_shared_switch_probes_are_schedule_identical(self):
        """Several senders share a downlink here; direct exchanges send in
        one canonical order, so no same-time permutation moves a result."""
        probes = [p for p in fig09.schedule_probes() if "-s" in p.label]
        assert len(probes) == 2
        for probe in probes:
            report = run_schedule_trials(probe, trials=4)
            assert report.identical, report.summary()

    def test_fig12_probe_batch(self):
        labels = [p.label for p in fig12.schedule_probes()]
        assert len(labels) == 2
        assert all(label.startswith("fig12/") for label in labels)

    def test_smallest_fig12_config_is_schedule_identical(self):
        """A fast end-to-end identity proof on a real collective run (the
        full fig09/fig12 sweep runs in CI via ``analyze --schedule``)."""
        probe = fig12.schedule_probes(
            size_bytes=64 * 1024, shapes=(TorusShape(2, 2, 2),))[0]
        report = run_schedule_trials(probe, trials=2)
        assert report.identical, report.summary()
        assert report.outcomes[0].events_processed > 0
        assert (report.outcomes[0].events_processed
                == report.outcomes[1].events_processed)


class TestPayloadDiff:
    def test_nested_paths(self):
        a = {"x": 1, "rows": [{"q": 1.0}, {"q": 2.0}]}
        b = {"x": 1, "rows": [{"q": 1.0}, {"q": 2.5}]}
        assert payload_diff(a, b) == ["rows[1].q"]

    def test_missing_keys_count_as_diff(self):
        assert payload_diff({"a": 1}, {}) == ["a"]

    def test_equal_payloads(self):
        assert payload_diff({"a": [1, 2]}, {"a": [1, 2]}) == []
