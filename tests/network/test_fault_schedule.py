"""Dynamic fault schedules: parsing, installation, and injection-time drops.

Transport-level recovery is exercised in ``tests/system/test_transport.py``;
here we pin down the schedule format, its validation against a fabric, and
the raw drop semantics both backends share through
``NetworkBackend._drop_if_faulty``.
"""

import os

import pytest

from repro.config.parameters import LinkConfig, NetworkConfig, TorusShape
from repro.config.presets import paper_simulation_config
from repro.errors import ConfigError, NetworkError
from repro.events.engine import EventQueue
from repro.network.fast_backend import FastBackend
from repro.network.fault_schedule import FaultAction, FaultSchedule, FaultState
from repro.network.link import Link
from repro.topology.logical import build_torus_topology

IDEAL = LinkConfig(bandwidth_gbps=128.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL)

GOOD_SCHEDULE = {
    "seed": 7,
    "events": [
        {"time": 50_000, "action": "link_down", "link": [1, 2]},
        {"time": 250_000, "action": "link_up", "link": [1, 2]},
        {"time": 0, "action": "drop", "link": [2, 3], "probability": 0.02},
        {"time": 100_000, "action": "link_degrade", "link": [3, 0],
         "bandwidth_factor": 0.5, "extra_latency_cycles": 100},
        {"time": 80_000, "action": "node_pause", "node": 3},
        {"time": 120_000, "action": "node_resume", "node": 3},
    ],
}


def build_fabric(n=4):
    config = paper_simulation_config()
    topo = build_torus_topology(TorusShape(1, n, 1), config.network,
                                config.system)
    return topo.fabric


class TestParsing:
    def test_good_schedule_parses_and_sorts(self):
        sched = FaultSchedule.from_dict(GOOD_SCHEDULE)
        assert len(sched) == 6
        assert sched.seed == 7
        times = [e.time for e in sched.events]
        assert times == sorted(times)
        assert sched.events[0].action is FaultAction.DROP

    def test_to_dict_roundtrip(self):
        sched = FaultSchedule.from_dict(GOOD_SCHEDULE)
        again = FaultSchedule.from_dict(sched.to_dict())
        assert again.to_dict() == sched.to_dict()

    def test_from_json(self):
        import json

        sched = FaultSchedule.from_json(json.dumps(GOOD_SCHEDULE))
        assert len(sched) == 6

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule.from_json("{not json")

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule.from_file("/nonexistent/schedule.json")

    def test_bad_fixture_files_rejected(self):
        base = os.path.join(os.path.dirname(__file__), "..", "data",
                            "badconfigs")
        with pytest.raises(ConfigError):
            FaultSchedule.from_file(
                os.path.join(base, "bad_fault_schedule_action.json"))

    @pytest.mark.parametrize("doc", [
        {"events": [{"time": 1, "action": "link_explode", "link": [0, 1]}]},
        {"events": [{"time": 1, "action": "link_down"}]},
        {"events": [{"time": 1, "action": "node_pause"}]},
        {"events": [{"time": -1, "action": "link_down", "link": [0, 1]}]},
        {"events": [{"time": 1, "action": "link_down", "link": [0, 0]}]},
        {"events": [{"time": 1, "action": "link_down", "link": [0]}]},
        {"events": [{"time": 1, "action": "link_down", "link": [0, 1],
                     "surprise": True}]},
        {"events": [{"time": 1, "action": "drop", "link": [0, 1],
                     "probability": 1.5}]},
        {"events": [{"time": 1, "action": "link_degrade", "link": [0, 1],
                     "bandwidth_factor": 0.0}]},
        {"events": [{"time": 1, "action": "link_degrade", "link": [0, 1],
                     "extra_latency_cycles": -5}]},
        {"events": [{"time": True, "action": "link_down", "link": [0, 1]}]},
        {"events": [{"time": 1, "action": "drop", "probability": "0.5"}]},
        {"events": [{"time": 1, "action": "link_degrade", "link": [0, 1],
                     "bandwidth_factor": True}]},
        {"events": [{"time": 1, "action": "link_degrade", "link": [0, 1],
                     "extra_latency_cycles": "5"}]},
        {"events": [{"time": 1, "action": "node_pause", "node": -1}]},
        {"events": ["link_down"]},
        {"events": {"time": 1}},
        {"seed": "zero", "events": []},
        {"seed": 0, "events": [], "extra": 1},
        [],
    ])
    def test_bad_documents_rejected(self, doc):
        with pytest.raises(ConfigError):
            FaultSchedule.from_dict(doc)


class TestInstall:
    def test_unknown_link_rejected(self):
        fabric = build_fabric(4)
        sched = FaultSchedule.from_dict(
            {"events": [{"time": 1, "action": "link_down", "link": [0, 2]}]})
        with pytest.raises(NetworkError, match="0->2"):
            sched.install(fabric, EventQueue())

    def test_unknown_node_rejected(self):
        fabric = build_fabric(4)
        sched = FaultSchedule.from_dict(
            {"events": [{"time": 1, "action": "node_pause", "node": 9}]})
        with pytest.raises(NetworkError, match="node 9"):
            sched.install(fabric, EventQueue())

    def test_install_returns_seeded_state(self):
        fabric = build_fabric(4)
        events = EventQueue()
        state = FaultSchedule.from_dict(GOOD_SCHEDULE).install(fabric, events)
        assert isinstance(state, FaultState)
        assert state.seed == 7
        assert events.pending == 6

    def test_events_fire_in_time_order(self):
        fabric = build_fabric(4)
        events = EventQueue()
        sched = FaultSchedule.from_dict({"events": [
            {"time": 100, "action": "link_down", "link": [1, 2]},
            {"time": 200, "action": "link_up", "link": [1, 2]},
        ]})
        state = sched.install(fabric, events)
        assert state.down == set()
        events.run(until=100)
        assert state.down == {(1, 2)}
        events.run(until=200)
        assert state.down == set()

    def test_node_pause_resume(self):
        fabric = build_fabric(4)
        events = EventQueue()
        sched = FaultSchedule.from_dict({"events": [
            {"time": 10, "action": "node_pause", "node": 2},
            {"time": 20, "action": "node_resume", "node": 2},
        ]})
        state = sched.install(fabric, events)
        events.run(until=10)
        assert state.paused == {2}
        events.run(until=20)
        assert state.paused == set()

    def test_link_degrade_applies_at_fire_time(self):
        fabric = build_fabric(4)
        events = EventQueue()
        victims = [l for l in fabric.links if (l.src, l.dst) == (1, 2)]
        before = [l.config.bandwidth_gbps for l in victims]
        sched = FaultSchedule.from_dict({"events": [
            {"time": 100, "action": "link_degrade", "link": [1, 2],
             "bandwidth_factor": 0.5, "extra_latency_cycles": 25},
        ]})
        sched.install(fabric, events)
        assert [l.config.bandwidth_gbps for l in victims] == before
        events.run()
        assert all(l.config.bandwidth_gbps == pytest.approx(b / 2)
                   for l, b in zip(victims, before))
        assert all(l.config.latency_cycles >= 25 for l in victims)


class TestDropSemantics:
    def make_backend(self):
        events = EventQueue()
        backend = FastBackend(events, NET)
        backend.faults = FaultState(seed=0)
        return events, backend

    def test_down_link_drops_message(self):
        events, backend = self.make_backend()
        link = Link(0, 1, IDEAL)
        backend.faults.down.add((0, 1))
        delivered = []
        backend.send(0, 1, 1024.0, [link], "t", delivered.append)
        events.run()
        assert delivered == []
        assert backend.messages_dropped == 1
        assert backend.faults.drops_by_reason == {"link 0->1 down": 1}

    def test_paused_node_drops_message(self):
        events, backend = self.make_backend()
        link = Link(0, 1, IDEAL)
        backend.faults.paused.add(1)
        delivered = []
        drop = backend.send(0, 1, 1024.0, [link], "t", delivered.append)
        events.run()
        assert delivered == []
        assert drop == ("node_paused", "node 1 paused")

    def test_healthy_message_delivered(self):
        events, backend = self.make_backend()
        link = Link(0, 1, IDEAL)
        delivered = []
        backend.send(0, 1, 1024.0, [link], "t", delivered.append)
        events.run()
        assert len(delivered) == 1
        assert backend.messages_dropped == 0

    def test_probabilistic_drop_is_seeded(self):
        def run(seed):
            events = EventQueue()
            backend = FastBackend(events, NET)
            backend.faults = FaultState(seed=seed)
            backend.faults.drop_probability[(0, 1)] = 0.5
            link = Link(0, 1, IDEAL)
            outcomes = []
            for i in range(50):
                drop = backend.send(0, 1, 64.0, [link], f"m{i}", lambda record: None)
                outcomes.append(drop is not None)
            events.run()
            return outcomes

        a, b = run(3), run(3)
        assert a == b
        assert any(a) and not all(a)
        assert run(4) != a

    def test_default_drop_probability_certain_loss(self):
        events, backend = self.make_backend()
        backend.faults.default_drop_probability = 1.0
        link = Link(0, 1, IDEAL)
        delivered = []
        backend.send(0, 1, 64.0, [link], "t", delivered.append)
        events.run()
        assert delivered == []

    def test_down_links_on_path(self):
        state = FaultState()
        state.down.add((1, 2))
        path = [Link(0, 1, IDEAL), Link(1, 2, IDEAL)]
        assert state.down_links_on(path) == [(1, 2)]


class TestScheduleLint:
    def lint(self, doc):
        from repro.sanitize.static_lint import lint_fault_schedule

        findings = lint_fault_schedule(doc, source="test")
        return [f for f in findings if f.severity.value == "error"], \
               [f for f in findings if f.severity.value == "warning"]

    def test_good_schedule_is_clean(self):
        errors, _warnings = self.lint(GOOD_SCHEDULE)
        assert errors == []

    def test_bad_action_flagged(self):
        errors, _ = self.lint(
            {"events": [{"time": 1, "action": "meteor_strike"}]})
        assert errors

    def test_bad_seed_flagged(self):
        errors, _ = self.lint({"seed": "x", "events": []})
        assert any(f.param == "fault_schedule.seed" for f in errors)

    def test_errors_name_the_events_document_index(self):
        errors, _ = self.lint({"events": [
            {"time": 500, "action": "link_down", "link": [0, 1]},
            {"time": 10, "action": "bogus"}]})
        assert [f.param for f in errors] == ["fault_schedule.events[1].action"]
        errors, _ = self.lint({"events": [
            "not an event",
            {"time": 1, "action": "link_down", "link": [0, 1], "lnik": 2},
            {"time": 2, "action": "link_down", "link": [0, 0]}]})
        assert [f.param for f in errors] == [
            "fault_schedule.events[0]", "fault_schedule.events[1].lnik",
            "fault_schedule.events[2]"]

    def test_link_up_is_checked_in_time_order(self):
        errors, warnings = self.lint({"events": [
            {"time": 500, "action": "link_up", "link": [0, 1]},
            {"time": 10, "action": "link_down", "link": [0, 1]}]})
        assert errors == [] and warnings == []

    def test_non_numbers_and_negative_nodes_are_errors_at_the_event(self):
        errors, _ = self.lint({"events": [
            {"time": 1, "action": "drop", "probability": "0.5"},
            {"time": 2, "action": "link_degrade", "link": [0, 1],
             "bandwidth_factor": True},
            {"time": 3, "action": "node_pause", "node": -1}]})
        assert sorted((f.code, f.param) for f in errors) == [
            ("bad-type", "fault_schedule.events[0].probability"),
            ("bad-type", "fault_schedule.events[1].bandwidth_factor"),
            ("out-of-range", "fault_schedule.events[2].node")]

    def test_link_up_without_down_warns(self):
        errors, warnings = self.lint(
            {"events": [{"time": 1, "action": "link_up", "link": [0, 1]}]})
        assert errors == []
        assert warnings

    def test_run_spec_with_fault_schedule_section(self):
        """A link flap that comes back up lints clean: no errors and no
        link_up-without-down warning."""
        from repro.sanitize.static_lint import lint_run_spec

        report = lint_run_spec({"events": [
            {"time": 1, "action": "link_down", "link": [0, 1]},
            {"time": 9, "action": "link_up", "link": [0, 1]}]}, source="test")
        assert report.findings == [], report.format()

    def test_bare_schedule_document_linted(self):
        from repro.sanitize.static_lint import lint_run_spec

        report = lint_run_spec(
            {"events": [{"time": 1, "action": "warp_core_breach"}]},
            source="test")
        assert report.errors
