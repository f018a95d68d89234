"""Tests for multi-phase chunk execution over real fabrics."""

import pytest

from repro.collectives.context import CollectiveContext
from repro.collectives.hierarchical import ChunkExecution
from repro.collectives.types import CollectiveOp, build_phase_plan
from repro.config.parameters import AllToAllShape, CollectiveAlgorithm, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.dims import Dimension
from repro.errors import CollectiveError
from repro.events.engine import EventQueue
from repro.network.fast_backend import FastBackend
from repro.system.stats import DelayBreakdown
from repro.topology.logical import build_alltoall_topology, build_torus_topology

NET = paper_network_config()


def make_platform():
    events = EventQueue()
    backend = FastBackend(events, NET)
    return events, CollectiveContext(backend)


def run_chunk(fabric, plan, size, chunk_index=0, breakdown=None):
    events = EventQueue()
    backend = FastBackend(events, NET)
    ctx = CollectiveContext(backend, breakdown=breakdown)
    done = []
    chunk = ChunkExecution(ctx, fabric, plan, size, chunk_index=chunk_index,
                           on_done=done.append)
    chunk.start()
    events.run(max_events=10_000_000)
    assert done, "chunk never completed"
    return chunk


class TestTorusExecution:
    def test_baseline_all_reduce_completes(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        dims = [(d, fabric.dim_size(d)) for d in fabric.dimensions]
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims)
        chunk = run_chunk(fabric, plan, 64 * 1024)
        assert chunk.done
        assert chunk.finished_at > 0

    def test_enhanced_beats_baseline_on_asymmetric_fabric(self):
        def time_for(algorithm):
            fabric = build_torus_topology(TorusShape(4, 4, 4), NET).fabric
            dims = [(d, fabric.dim_size(d)) for d in fabric.dimensions]
            plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims, algorithm)
            return run_chunk(fabric, plan, 1024 * 1024).finished_at

        baseline = time_for(CollectiveAlgorithm.BASELINE)
        enhanced = time_for(CollectiveAlgorithm.ENHANCED)
        # Sec. V-C: the 4-phase algorithm cuts inter-package volume by 4x.
        assert enhanced < baseline / 2

    def test_empty_plan_completes_immediately(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        chunk = run_chunk(fabric, [], 1024)
        assert chunk.finished_at == 0.0

    def test_chunk_index_selects_different_rings(self):
        """Chunks land on their LSQ's dedicated ring: two chunks with
        different indices must use different local rings."""
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET, SystemConfig(local_rings=2)).fabric
        dims = [(Dimension.LOCAL, 2)]
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims)

        events = EventQueue()
        ctx = CollectiveContext(FastBackend(events, NET))
        c0 = ChunkExecution(ctx, fabric, plan, 64 * 1024, chunk_index=0)
        c1 = ChunkExecution(ctx, fabric, plan, 64 * 1024, chunk_index=1)
        c0.start()
        c1.start()
        events.run(max_events=10_000_000)
        # Both finished at the same time: no shared links, no queueing.
        assert c0.finished_at == pytest.approx(c1.finished_at)

        # Same index twice -> shared ring -> the pair takes longer.
        events2 = EventQueue()
        fabric2 = build_torus_topology(TorusShape(2, 2, 2), NET, SystemConfig(local_rings=2)).fabric
        ctx2 = CollectiveContext(FastBackend(events2, NET))
        d0 = ChunkExecution(ctx2, fabric2, plan, 64 * 1024, chunk_index=0)
        d1 = ChunkExecution(ctx2, fabric2, plan, 64 * 1024, chunk_index=2)
        d0.start()
        d1.start()
        events2.run(max_events=10_000_000)
        assert max(d0.finished_at, d1.finished_at) > c0.finished_at

    def test_scoped_plan_only_uses_scoped_dimension(self):
        fabric = build_torus_topology(TorusShape(2, 4, 4), NET).fabric
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE,
                                [(Dimension.VERTICAL, 4)])
        chunk = run_chunk(fabric, plan, 64 * 1024)
        for link in fabric.links:
            if link.kind == "local":
                assert link.stats.messages == 0

    def test_double_start_rejected(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        events = EventQueue()
        ctx = CollectiveContext(FastBackend(events, NET))
        chunk = ChunkExecution(ctx, fabric, [], 1024)
        chunk.start()
        with pytest.raises(CollectiveError):
            chunk.start()

    def test_rejects_nonpositive_chunk(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        events = EventQueue()
        ctx = CollectiveContext(FastBackend(events, NET))
        with pytest.raises(CollectiveError):
            ChunkExecution(ctx, fabric, [], 0.0)


class TestPhaseTracking:
    def test_stats_cover_all_phases(self):
        fabric = build_torus_topology(TorusShape(4, 4, 4), NET).fabric
        dims = [(d, fabric.dim_size(d)) for d in fabric.dimensions]
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims,
                                CollectiveAlgorithm.ENHANCED)
        breakdown = DelayBreakdown()
        run_chunk(fabric, plan, 256 * 1024, breakdown=breakdown)
        assert list(breakdown.phase_stats) == [1, 2, 3, 4]
        assert all(s.messages > 0 for s in breakdown.phase_stats.values())

    def test_on_phase_done_fires_in_order(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        dims = [(d, fabric.dim_size(d)) for d in fabric.dimensions]
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims)
        drained = []
        events = EventQueue()
        ctx = CollectiveContext(FastBackend(events, NET))
        chunk = ChunkExecution(ctx, fabric, plan, 64 * 1024,
                               on_phase_done=lambda ci, p: drained.append(p))
        chunk.start()
        events.run(max_events=10_000_000)
        assert drained == [0, 1, 2]

    def test_min_phase_progression(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        dims = [(d, fabric.dim_size(d)) for d in fabric.dimensions]
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims)
        events = EventQueue()
        ctx = CollectiveContext(FastBackend(events, NET))
        chunk = ChunkExecution(ctx, fabric, plan, 64 * 1024)
        chunk.start()
        assert chunk.current_min_phase == 0
        events.run(max_events=10_000_000)
        assert chunk.current_min_phase == len(plan)


class TestAllToAllFabricExecution:
    def test_hierarchical_all_reduce(self):
        fabric = build_alltoall_topology(AllToAllShape(2, 4), NET).fabric
        dims = [(d, fabric.dim_size(d)) for d in fabric.dimensions]
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims,
                                CollectiveAlgorithm.ENHANCED)
        assert [p.dim for p in plan] == [Dimension.LOCAL, Dimension.ALLTOALL,
                                         Dimension.LOCAL]
        chunk = run_chunk(fabric, plan, 64 * 1024)
        assert chunk.done

    def test_hierarchical_all_to_all(self):
        fabric = build_alltoall_topology(AllToAllShape(2, 4), NET).fabric
        dims = [(d, fabric.dim_size(d)) for d in fabric.dimensions]
        plan = build_phase_plan(CollectiveOp.ALL_TO_ALL, dims)
        chunk = run_chunk(fabric, plan, 64 * 1024)
        assert chunk.done

    def test_single_nam_alltoall(self):
        fabric = build_alltoall_topology(
            AllToAllShape(1, 8), NET, SystemConfig(global_switches=7)).fabric
        dims = [(d, fabric.dim_size(d)) for d in fabric.dimensions]
        plan = build_phase_plan(CollectiveOp.ALL_REDUCE, dims)
        chunk = run_chunk(fabric, plan, 64 * 1024)
        assert chunk.done
