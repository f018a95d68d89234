"""Tests for the collective bandwidth test harness."""

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape
from repro.config.units import KB, MB
from repro.errors import CollectiveError
from repro.harness.bandwidth_test import format_points, measure, traffic_factor
from repro.harness.runners import torus_platform


class TestTrafficFactor:
    def test_all_reduce(self):
        assert traffic_factor(CollectiveOp.ALL_REDUCE, 8) == pytest.approx(14 / 8)

    def test_one_shot_collectives(self):
        for op in (CollectiveOp.REDUCE_SCATTER, CollectiveOp.ALL_GATHER,
                   CollectiveOp.ALL_TO_ALL):
            assert traffic_factor(op, 4) == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(CollectiveError):
            traffic_factor(CollectiveOp.ALL_REDUCE, 1)
        with pytest.raises(CollectiveError):
            traffic_factor(CollectiveOp.NONE, 4)


class TestMeasure:
    def _points(self, op=CollectiveOp.ALL_REDUCE,
                sizes=(256 * KB, 1 * MB, 4 * MB)):
        return measure(lambda: torus_platform(TorusShape(2, 2, 2)), op, sizes)

    def test_latency_monotone(self):
        points = self._points()
        latencies = [p.latency_cycles for p in points]
        assert latencies == sorted(latencies)

    def test_bandwidth_grows_toward_saturation(self):
        """Larger payloads amortize latency: algbw must increase."""
        points = self._points()
        bandwidths = [p.algbw_bytes_per_cycle for p in points]
        assert bandwidths == sorted(bandwidths)

    def test_busbw_below_aggregate_link_bandwidth(self):
        """Bus bandwidth cannot exceed a node's aggregate link bandwidth."""
        platform = torus_platform(TorusShape(2, 2, 2))
        system = platform.build_system()
        fabric = system.topology.fabric
        per_node_out = sum(
            l.config.effective_bytes_per_cycle() for l in fabric.links
        ) / fabric.num_npus
        for point in self._points(sizes=(8 * MB,)):
            assert point.busbw_bytes_per_cycle < per_node_out

    def test_algbw_definition(self):
        point = self._points(sizes=(1 * MB,))[0]
        assert point.algbw_bytes_per_cycle == pytest.approx(
            point.size_bytes / point.latency_cycles)

    def test_format_contains_all_points(self):
        points = self._points(sizes=(256 * KB, 1 * MB))
        text = format_points(points)
        assert "algbw" in text
        assert len(text.splitlines()) == 2 + len(points)

    def test_quarantined_size_is_left_out(self):
        """Under supervision a size whose point fails is dropped from the
        table; the other sizes still report."""
        from repro.parallel.executor import ParallelExecutor, set_default_executor
        from repro.parallel.supervisor import SupervisionPolicy

        calls = []

        def second_build_fails():
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("injected builder failure")
            return torus_platform(TorusShape(2, 2, 2))

        set_default_executor(ParallelExecutor(
            jobs=1, policy=SupervisionPolicy(max_retries=0)))
        try:
            points = measure(second_build_fails, CollectiveOp.ALL_REDUCE,
                             (256 * KB, 1 * MB, 4 * MB))
        finally:
            set_default_executor(None)
        assert [p.size_bytes for p in points] == [256 * KB, 4 * MB]
