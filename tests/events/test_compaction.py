"""Heap compaction under cancellation pressure.

The reliable transport cancels one delivery timer per acked message, so
a long faulty run leaves the heap mostly dead entries.  Compaction
rebuilds the heap once cancelled entries both cross
``COMPACT_MIN_CANCELLED`` and outnumber the live ones — and because heap
order is (time, tiebreak, seq), the executed event sequence is identical
with or without it.
"""

from repro.events.engine import EventQueue
from repro.sanitize.runtime import RuntimeSanitizer


def fill_and_cancel(queue, scheduled=3_000, cancelled=2_000, sink=None):
    """Schedule `scheduled` events, cancel the first `cancelled` of them."""
    handles = []
    for i in range(scheduled):
        time = 10.0 + i * 0.5
        if sink is None:
            handles.append(queue.schedule_at(time, lambda: None))
        else:
            handles.append(queue.schedule_at(time, lambda t=time: sink.append(t)))
    for handle in handles[:cancelled]:
        handle.cancel()
    return handles


class TestCompaction:
    def test_compacts_past_threshold(self):
        queue = EventQueue()
        fill_and_cancel(queue)
        assert queue.compactions >= 1
        # The rebuild fires at the 1501st cancel (1024 floor crossed and
        # dead entries dominate); the 499 cancels after it stay lazy.
        assert queue.heap_size == 1_499
        assert queue.pending == queue.live_count() == 1_000

    def test_no_compaction_below_threshold(self):
        """1023 cancellations sit just under COMPACT_MIN_CANCELLED."""
        queue = EventQueue()
        fill_and_cancel(queue, scheduled=1_500, cancelled=1_023)
        assert queue.compactions == 0
        assert queue.heap_size == 1_500
        assert queue.pending == queue.live_count() == 477

    def test_cancelled_must_also_outnumber_live(self):
        """Crossing the floor alone is not enough: 1100 dead among 3000
        total do not dominate the heap, so no rebuild happens."""
        queue = EventQueue()
        fill_and_cancel(queue, scheduled=3_000, cancelled=1_100)
        assert queue.compactions == 0
        assert queue.heap_size == 3_000

    def test_firing_order_identical_with_and_without_compaction(self):
        def trace(compaction_enabled):
            queue = EventQueue()
            if not compaction_enabled:
                queue.COMPACT_MIN_CANCELLED = 10**9  # instance override
            fired = []
            fill_and_cancel(queue, sink=fired)
            queue.run()
            return fired, queue.events_processed, queue.now

        compacted = trace(compaction_enabled=True)
        lazy = trace(compaction_enabled=False)
        assert compacted == lazy

    def test_explicit_compact_is_a_noop_when_clean(self):
        queue = EventQueue()
        queue.schedule_at(5.0, lambda: None)
        queue.compact()
        assert queue.compactions == 0
        assert queue.heap_size == 1

    def test_reset_clears_compaction_state(self):
        queue = EventQueue()
        fill_and_cancel(queue)
        assert queue.compactions >= 1
        queue.reset()
        assert queue.compactions == 0
        assert queue.heap_size == queue.pending == 0


class TestPendingHeapInvariant:
    def sanitizer(self):
        return RuntimeSanitizer()

    def test_clean_queue_has_no_findings(self):
        queue = EventQueue()
        fill_and_cancel(queue)
        assert self.sanitizer().event_queue_findings(queue) == []

    def test_drift_is_reported(self):
        queue = EventQueue()
        fill_and_cancel(queue, scheduled=100, cancelled=10)
        queue._cancelled_in_heap += 3  # simulate a lost cancellation
        findings = self.sanitizer().event_queue_findings(queue)
        assert len(findings) == 1
        assert findings[0].code == "pending-count-drift"
        assert "87" in findings[0].message  # the claimed pending count
        assert "90" in findings[0].message  # the recounted live entries


class TestUnifiedDrain:
    """step() and run() drop cancelled heads with the same bookkeeping
    (run() inlines _peek_live), so the pending/compaction counters cannot
    drift between the two paths — whichever mix of them executes a run."""

    def test_interleaved_step_and_run_keep_counters_exact(self):
        queue = EventQueue()
        sink = []
        fill_and_cancel(queue, scheduled=200, cancelled=120, sink=sink)
        # Drain a few events one at a time, then let run() finish.
        for _ in range(10):
            assert queue.step()
            assert queue.pending == queue.live_count()
        queue.run()
        assert sink == sorted(sink)
        assert len(sink) == 80
        assert queue.pending == queue.live_count() == 0
        assert queue._cancelled_in_heap == 0
        assert RuntimeSanitizer().event_queue_findings(queue) == []

    def test_step_and_run_execute_identical_sequences(self):
        def build():
            q = EventQueue()
            s = []
            fill_and_cancel(q, scheduled=150, cancelled=60, sink=s)
            return q, s

        stepped, s1 = build()
        while stepped.step():
            pass
        ran, s2 = build()
        ran.run()
        assert s1 == s2
        assert stepped.events_processed == ran.events_processed

    def test_run_until_leaves_cancelled_accounting_consistent(self):
        queue = EventQueue()
        sink = []
        fill_and_cancel(queue, scheduled=100, cancelled=40, sink=sink)
        queue.run(until=30.0)  # mid-heap horizon
        assert queue.pending == queue.live_count()
        queue.run()
        assert queue.pending == queue.live_count() == 0
