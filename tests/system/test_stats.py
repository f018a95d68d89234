"""Tests for the delay-breakdown statistics (Figs. 12b/16 machinery)."""

import pytest

from repro.system import DelayBreakdown


def delivered_message(queue=5.0, network=20.0, size=100.0):
    """``PhaseStats.record`` arguments: a delivery record created at 0,
    injected at ``queue`` and its delivery time."""
    return (None, 0, 1, size, None, 0.0, queue), queue + network


class TestDelayBreakdown:
    def test_record_and_means(self):
        b = DelayBreakdown()
        b.phase(1).record(*delivered_message(queue=10.0, network=30.0))
        b.phase(1).record(*delivered_message(queue=20.0, network=50.0))
        assert b.mean_queue_delay(1) == pytest.approx(15.0)
        assert b.mean_network_delay(1) == pytest.approx(40.0)

    def test_ready_queue_is_p0(self):
        b = DelayBreakdown()
        b.record_ready_queue(100.0)
        b.record_ready_queue(200.0)
        assert b.mean_ready_queue_delay == pytest.approx(150.0)

    def test_empty_breakdown(self):
        b = DelayBreakdown()
        assert b.mean_ready_queue_delay == 0.0
        assert b.mean_queue_delay(1) == 0.0
        assert b.num_phases == 0

    def test_rows_structure(self):
        b = DelayBreakdown()
        b.record_ready_queue(50.0)
        b.phase(1).record(*delivered_message())
        b.phase(3).record(*delivered_message())
        rows = b.rows()
        assert [r["phase"] for r in rows] == [0, 1, 2, 3]
        assert rows[0]["queue"] == pytest.approx(50.0)
        assert rows[2]["queue"] == 0.0  # phase 2 had no traffic

    def test_merge_from(self):
        a, b = DelayBreakdown(), DelayBreakdown()
        a.phase(1).record(*delivered_message(queue=10.0))
        b.phase(1).record(*delivered_message(queue=30.0))
        b.record_ready_queue(7.0)
        a.merge_from(b)
        assert a.mean_queue_delay(1) == pytest.approx(20.0)
        assert a.ready_queue_delays == [7.0]

    def test_phase_stats_bytes(self):
        b = DelayBreakdown()
        b.phase(2).record(*delivered_message(size=300.0))
        b.phase(2).record(*delivered_message(size=700.0))
        assert b.phase_stats[2].bytes == pytest.approx(1000.0)
        assert b.phase_stats[2].messages == 2
