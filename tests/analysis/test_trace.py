"""Tests for timeline collection and Chrome-trace export."""

import json

import pytest

from repro.analysis.trace import (
    PhaseSpan,
    collect_timeline,
    phase_occupancy,
    to_chrome_trace,
)
from repro.collectives.types import CollectiveOp
from repro.config.parameters import CollectiveAlgorithm, SimulationConfig, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.config.units import MB
from repro.errors import ReproError
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology

NET = paper_network_config()


def traced_run(trace=True):
    cfg = SystemConfig(algorithm=CollectiveAlgorithm.ENHANCED,
                       preferred_set_splits=4)
    topo = build_torus_topology(TorusShape(2, 2, 2), NET, cfg)
    system = System(topo, SimulationConfig(system=cfg, network=NET),
                    trace=trace)
    system.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB, name="ar")
    system.run_until_idle(max_events=50_000_000)
    return system


class TestTimeline:
    def test_spans_cover_all_chunks_and_phases(self):
        system = traced_run()
        spans = collect_timeline(system)
        # 4 chunks x 4 enhanced phases.
        assert len(spans) == 16
        assert {s.chunk_index for s in spans} == {0, 1, 2, 3}
        assert {s.phase_index for s in spans} == {1, 2, 3, 4}

    def test_spans_ordered_and_positive(self):
        spans = collect_timeline(traced_run())
        for span in spans:
            assert span.end >= span.start >= 0.0

    def test_phases_sequential_within_chunk(self):
        spans = collect_timeline(traced_run())
        by_chunk = {}
        for span in spans:
            by_chunk.setdefault(span.chunk_index, []).append(span)
        for chunk_spans in by_chunk.values():
            for a, b in zip(chunk_spans, chunk_spans[1:]):
                assert b.start >= a.start

    def test_untraced_system_rejected(self):
        system = traced_run(trace=False)
        with pytest.raises(ReproError):
            collect_timeline(system)

    def test_phase_labels(self):
        spans = collect_timeline(traced_run())
        labels = {s.phase_label for s in spans}
        assert "P1:reducescatter@local" in labels
        assert "P4:allgather@local" in labels


class TestChromeTrace:
    def test_valid_json_with_events(self):
        system = traced_run()
        trace = json.loads(to_chrome_trace(system))
        events = trace["traceEvents"]
        duration_events = [e for e in events if e["ph"] == "X"]
        assert len(duration_events) == 16
        assert all(e["dur"] >= 0 for e in duration_events)

    def test_process_metadata_present(self):
        system = traced_run()
        trace = json.loads(to_chrome_trace(system))
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "ar"

    def test_timebase_scaling(self):
        system = traced_run()
        fine = json.loads(to_chrome_trace(system, cycles_per_microsecond=1.0))
        coarse = json.loads(to_chrome_trace(system, cycles_per_microsecond=1000.0))
        fine_dur = max(e["dur"] for e in fine["traceEvents"] if e["ph"] == "X")
        coarse_dur = max(e["dur"] for e in coarse["traceEvents"] if e["ph"] == "X")
        assert fine_dur == pytest.approx(1000.0 * coarse_dur)

    def test_bad_timebase(self):
        with pytest.raises(ReproError):
            to_chrome_trace(traced_run(), cycles_per_microsecond=0.0)


class TestOccupancy:
    def test_occupancy_sums_durations(self):
        spans = [
            PhaseSpan(0, "s", 0, 1, "P1", 0.0, 10.0),
            PhaseSpan(0, "s", 1, 1, "P1", 5.0, 25.0),
            PhaseSpan(0, "s", 0, 2, "P2", 10.0, 15.0),
        ]
        occ = phase_occupancy(spans)
        assert occ == {1: 30.0, 2: 5.0}

    def test_real_run_occupancy(self):
        spans = collect_timeline(traced_run())
        occ = phase_occupancy(spans)
        assert set(occ) == {1, 2, 3, 4}
        # Inter-package phases dominate occupancy on the asymmetric fabric.
        assert occ[2] + occ[3] > occ[1] + occ[4]
