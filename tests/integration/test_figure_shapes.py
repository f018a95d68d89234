"""Integration tests: small-scale versions of the paper's experiments must
reproduce the qualitative shapes of Figs. 9-12 (orderings, crossovers)."""

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import AllToAllShape, CollectiveAlgorithm, TorusShape
from repro.config.units import KB, MB
from repro.dims import Dimension
from repro.harness.runners import alltoall_platform, run_collective, torus_platform


def duration(platform, op, size):
    return run_collective(platform, op, size).duration_cycles


class TestFig9Shapes:
    """1D topology: alltoall vs torus (Sec. V-A)."""

    def _alltoall(self):
        return alltoall_platform(AllToAllShape(1, 8), global_switches=7)

    def _torus(self):
        return torus_platform(TorusShape(1, 8, 1), horizontal_rings=4)

    def test_alltoall_topology_always_wins_all_to_all(self):
        for size in (64 * KB, 1 * MB, 8 * MB):
            a = duration(self._alltoall(), CollectiveOp.ALL_TO_ALL, size)
            t = duration(self._torus(), CollectiveOp.ALL_TO_ALL, size)
            assert a < t, f"alltoall lost at {size}"

    def test_all_reduce_crossover(self):
        """alltoall wins small messages; torus wins large ones."""
        small_a = duration(self._alltoall(), CollectiveOp.ALL_REDUCE, 64 * KB)
        small_t = duration(self._torus(), CollectiveOp.ALL_REDUCE, 64 * KB)
        assert small_a < small_t

        large_a = duration(self._alltoall(), CollectiveOp.ALL_REDUCE, 16 * MB)
        large_t = duration(self._torus(), CollectiveOp.ALL_REDUCE, 16 * MB)
        assert large_t < large_a


class TestFig10Shapes:
    """2D/3D torus at fixed package count, symmetric links, baseline
    algorithm (Sec. V-B) — scaled down to 16 packages for test speed."""

    def _platform(self, shape, rings=2):
        one_d = shape.local == 1 and shape.vertical == 1
        return torus_platform(shape, symmetric=True,
                              horizontal_rings=4 if one_d else rings,
                              vertical_rings=rings)

    def test_2d_beats_1d_in_latency_bound_regime(self):
        """Fewer hops per dimension win while steps are latency-bound
        (Sec. V-B: 63 hops vs 2x7; at very large messages the 1D ring's
        lower volume regains ground — see EXPERIMENTS.md)."""
        one_d = duration(self._platform(TorusShape(1, 16, 1)),
                         CollectiveOp.ALL_REDUCE, 128 * KB)
        two_d = duration(self._platform(TorusShape(1, 4, 4)),
                         CollectiveOp.ALL_REDUCE, 128 * KB)
        assert two_d < one_d

    def test_extra_local_dim_without_need_hurts(self):
        """2x8x4 is worse than 1x8x8: more volume, same bottleneck ring."""
        flat = duration(self._platform(TorusShape(1, 8, 8)),
                        CollectiveOp.ALL_REDUCE, 4 * MB)
        stacked = duration(self._platform(TorusShape(2, 8, 4)),
                           CollectiveOp.ALL_REDUCE, 4 * MB)
        assert flat < stacked


class TestFig11Shapes:
    """Asymmetric hierarchical topology (Sec. V-C), scaled to 2x2 packages."""

    SHAPE = TorusShape(4, 2, 2)

    def test_asymmetric_beats_symmetric(self):
        sym = duration(torus_platform(self.SHAPE, symmetric=True),
                       CollectiveOp.ALL_REDUCE, 4 * MB)
        asym = duration(torus_platform(self.SHAPE, symmetric=False),
                        CollectiveOp.ALL_REDUCE, 4 * MB)
        assert asym < sym

    def test_enhanced_beats_baseline_on_asymmetric(self):
        base = duration(
            torus_platform(self.SHAPE, algorithm=CollectiveAlgorithm.BASELINE),
            CollectiveOp.ALL_REDUCE, 4 * MB)
        enh = duration(
            torus_platform(self.SHAPE, algorithm=CollectiveAlgorithm.ENHANCED),
            CollectiveOp.ALL_REDUCE, 4 * MB)
        assert enh < base

    def test_enhanced_cuts_inter_package_bytes_4x(self):
        def package_bytes(algorithm):
            platform = torus_platform(self.SHAPE, algorithm=algorithm)
            system = platform.build_system()
            collective = system.request_collective(CollectiveOp.ALL_REDUCE, 4 * MB)
            system.run_until_idle(max_events=100_000_000)
            return sum(collective.breakdown.phase_stats[i + 1].bytes
                       for i, spec in enumerate(collective.plan)
                       if spec.dim is not Dimension.LOCAL)

        base = package_bytes(CollectiveAlgorithm.BASELINE)
        enh = package_bytes(CollectiveAlgorithm.ENHANCED)
        assert enh == pytest.approx(base / 4, rel=0.01)


class TestFig12Shapes:
    """Scaling the enhanced all-reduce (Sec. V-D), scaled-down shapes."""

    def _time(self, shape):
        platform = torus_platform(shape,
                                  algorithm=CollectiveAlgorithm.ENHANCED)
        return run_collective(platform, CollectiveOp.ALL_REDUCE, 2 * MB)

    def test_time_grows_with_modules(self):
        t8 = self._time(TorusShape(2, 2, 2)).duration_cycles
        t16 = self._time(TorusShape(2, 4, 2)).duration_cycles
        t32 = self._time(TorusShape(2, 4, 4)).duration_cycles
        assert t8 < t16 <= t32 * 1.05  # 16 -> 32 plateaus (same ring size)

    def test_plateau_when_bottleneck_ring_unchanged(self):
        """2x4x2 -> 2x4x4 keeps the bottleneck ring at 4 nodes, so the
        relative growth slows compared to 2x2x2 -> 2x4x2, where the
        bottleneck ring doubled (Sec. V-D)."""
        t8 = self._time(TorusShape(2, 2, 2)).duration_cycles
        t16 = self._time(TorusShape(2, 4, 2)).duration_cycles
        t32 = self._time(TorusShape(2, 4, 4)).duration_cycles
        assert t32 / t16 < t16 / t8

    def test_breakdown_has_four_phases(self):
        result = self._time(TorusShape(2, 4, 4))
        rows = result.breakdown.rows()
        assert [r["phase"] for r in rows] == [0, 1, 2, 3, 4]

    def test_network_delays_reflect_link_latencies(self):
        """Phase 1 runs on 90-cycle local links; phases 2/3 on 200-cycle
        inter-package links — the network-delay means must sit above the
        respective propagation latencies."""
        result = self._time(TorusShape(2, 4, 4))
        b = result.breakdown
        assert b.mean_network_delay(1) > 90.0
        assert b.mean_network_delay(2) > 200.0
        assert b.mean_network_delay(3) > 200.0

    def test_queue_delays_present_in_inter_package_phases(self):
        result = self._time(TorusShape(2, 4, 4))
        assert result.breakdown.mean_queue_delay(2) > 0.0
