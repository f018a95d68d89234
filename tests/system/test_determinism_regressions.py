"""Regression tests for nondeterminism the source linter flagged.

Each class pins one fixed bug: order-sensitive float accumulation in the
stats (now exact compaction, fsum on read) and the process-global chunk-id
counter (now per-Scheduler).  See docs/DETERMINISM.md.
"""

import contextlib
import json
import math
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.collectives import context
from repro.collectives.context import COMPACT_AT, PhaseStats
from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape, TransportConfig
from repro.harness.runners import run_collective, torus_platform
from repro.network.fault_schedule import FaultAction, FaultEvent, FaultSchedule
from repro.system import stats as stats_module
from repro.system.stats import DelayBreakdown

#: Values chosen so naive left-to-right += rounds differently than the
#: reverse order (1.0 absorbs the 1e-16 ulps one at a time).
ILL_CONDITIONED = [1.0, 1e-16, 1e-16, 1e-16, -1.0, 1e16, -1e16]


def message(q=0.0, n=0.0, size=0.0):
    """``PhaseStats.record`` arguments for a delivered message whose
    queueing/network cycles are exactly ``q``/``n``: created at -q and
    injected at a zero with q's sign, so both differences are exact,
    signed zeros included (only q and n both -0.0 cannot be represented;
    no test here needs it).  Sizes may be negative: only sends check
    them."""
    injected = math.copysign(0.0, q)
    return (None, 0, 1, size, None, -q, injected), n


class TestPhaseStatsOrderInvariance:
    def test_totals_independent_of_record_order(self):
        forward, backward = PhaseStats(), PhaseStats()
        for value in ILL_CONDITIONED:
            forward.record(*message(q=value, n=value, size=value))
        for value in reversed(ILL_CONDITIONED):
            backward.record(*message(q=value, n=value, size=value))
        assert forward.queue_cycles == backward.queue_cycles
        assert forward.network_cycles == backward.network_cycles
        assert forward.bytes == backward.bytes
        # And the total is the exact (fsum) one, not the drifted naive sum.
        assert forward.queue_cycles == math.fsum(ILL_CONDITIONED)

    def test_merge_order_invariant(self):
        def build(values):
            stats = PhaseStats()
            for value in values:
                stats.record(*message(q=value))
            return stats

        a, b = build(ILL_CONDITIONED[:3]), build(ILL_CONDITIONED[3:])
        ab = PhaseStats()
        ab.merge_from(a)
        ab.merge_from(b)
        ba = PhaseStats()
        ba.merge_from(b)
        ba.merge_from(a)
        assert ab.queue_cycles == ba.queue_cycles
        assert ab.messages == ba.messages

    def test_as_dict_round_trip_preserves_totals(self):
        stats = PhaseStats()
        for value in ILL_CONDITIONED:
            stats.record(*message(q=value, n=2 * value, size=1.0))
        again = PhaseStats.from_dict(stats.as_dict())
        assert again.queue_cycles == stats.queue_cycles
        assert again.network_cycles == stats.network_cycles
        assert again.messages == stats.messages


class TestReadyQueueDelayOrderInvariance:
    def test_mean_independent_of_dispatch_order(self):
        forward, backward = DelayBreakdown(), DelayBreakdown()
        for delay in ILL_CONDITIONED:
            forward.record_ready_queue(delay)
        for delay in reversed(ILL_CONDITIONED):
            backward.record_ready_queue(delay)
        assert (forward.mean_ready_queue_delay
                == backward.mean_ready_queue_delay)


@contextlib.contextmanager
def compact_at(threshold):
    """Run with another compaction threshold in both stats scopes."""
    with mock.patch.object(context, "COMPACT_AT", threshold), \
            mock.patch.object(stats_module, "COMPACT_AT", threshold):
        yield


#: Finite samples, bounded so no exact sum overflows a double.
SAMPLES = st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False,
                        min_value=-1e300, max_value=1e300),
              st.sampled_from(ILL_CONDITIONED)),
    max_size=80)


def split(values, cuts):
    """``values`` cut at the sorted positions ``cuts`` (empty parts kept)."""
    bounds = [0, *sorted(cuts), len(values)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


class TestStreamingExactStats:
    """Compaction keeps the exact sum, so every total is bit-for-bit
    ``fsum`` over the samples whatever the record order, compaction
    threshold, merge split or merge order."""

    @settings(max_examples=300, deadline=None)
    @given(samples=SAMPLES, threshold=st.sampled_from([1, 2, COMPACT_AT]),
           data=st.data())
    def test_phase_totals_equal_fsum(self, samples, threshold, data):
        order = data.draw(st.permutations(samples))
        cuts = data.draw(st.lists(st.integers(0, len(order)), max_size=4))
        with compact_at(threshold):
            parts = []
            for part in split(order, cuts):
                stats = PhaseStats()
                for value in part:
                    stats.record(*message(q=value, n=-value, size=value))
                parts.append(stats)
            merged = PhaseStats()
            for i in data.draw(st.permutations(range(len(parts)))):
                merged.merge_from(parts[i])
        expected = math.fsum(samples).hex()
        assert merged.queue_cycles.hex() == expected
        assert merged.bytes.hex() == expected
        assert merged.network_cycles.hex() == math.fsum(-v for v in samples).hex()
        assert merged.messages == len(samples)

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False,
                                                min_value=-1e290, max_value=1e290),
                                      st.sampled_from(ILL_CONDITIONED)),
                            max_size=60),
           threshold=st.sampled_from([1, 2, COMPACT_AT]), data=st.data())
    def test_copies_total_equals_fsum_of_every_copy(self, samples, threshold, data):
        """A quotient run's stats count each record ``copies`` times; its
        totals, also merged across sets (which share one system's copy
        count), equal ``fsum`` over every copy's sample."""
        cuts = data.draw(st.lists(st.integers(0, len(samples)), max_size=3))
        copies = data.draw(st.sampled_from([1, 2, 3, 32]))
        with compact_at(threshold):
            parts, every_copy = [], []
            for part in split(samples, cuts):
                stats = PhaseStats(copies=copies)
                for value in part:
                    stats.record(*message(q=value, n=-value, size=value))
                    every_copy += [value] * copies
                parts.append(stats)
            merged = PhaseStats(copies=copies)
            for i in data.draw(st.permutations(range(len(parts)))):
                merged.merge_from(parts[i])
        assert merged.queue_cycles.hex() == math.fsum(every_copy).hex()
        assert merged.network_cycles.hex() == math.fsum(-v for v in every_copy).hex()
        assert merged.messages == len(every_copy)

    @settings(max_examples=300, deadline=None)
    @given(samples=SAMPLES, threshold=st.sampled_from([1, 2, COMPACT_AT]),
           data=st.data())
    def test_ready_queue_equals_fsum(self, samples, threshold, data):
        order = data.draw(st.permutations(samples))
        cuts = data.draw(st.lists(st.integers(0, len(order)), max_size=4))
        with compact_at(threshold):
            parts = []
            for part in split(order, cuts):
                breakdown = DelayBreakdown()
                for value in part:
                    breakdown.record_ready_queue(value)
                parts.append(breakdown)
            merged = DelayBreakdown()
            for i in data.draw(st.permutations(range(len(parts)))):
                merged.merge_from(parts[i])
            if data.draw(st.booleans()):
                merged.compact()
        assert merged.ready_queue_count == len(samples)
        total = math.fsum(samples)
        assert math.fsum(merged.ready_queue_delays).hex() == total.hex()
        if samples:
            assert (merged.mean_ready_queue_delay.hex()
                    == (total / len(samples)).hex())

    @settings(max_examples=200, deadline=None)
    @given(samples=SAMPLES, data=st.data())
    def test_payload_independent_of_order(self, samples, data):
        """Fully compacted delays depend on the exact sum alone."""
        order = data.draw(st.permutations(samples))
        a, b = DelayBreakdown(), DelayBreakdown()
        for value in samples:
            a.record_ready_queue(value)
        with compact_at(data.draw(st.sampled_from([1, 2, COMPACT_AT]))):
            for value in order:
                b.record_ready_queue(value)
        assert a.as_dict() == b.as_dict()

    @settings(max_examples=200, deadline=None)
    @given(samples=SAMPLES)
    def test_as_dict_round_trip(self, samples):
        breakdown = DelayBreakdown()
        for value in samples:
            breakdown.record_ready_queue(value)
            breakdown.phase(1).record(*message(q=value, n=value, size=value))
        again = DelayBreakdown.from_dict(json.loads(json.dumps(breakdown.as_dict())))
        assert again.ready_queue_count == breakdown.ready_queue_count == len(samples)
        assert (math.fsum(again.ready_queue_delays).hex()
                == math.fsum(samples).hex())
        assert again.rows() == breakdown.rows()
        if samples:
            stats, back = breakdown.phase_stats[1], again.phase_stats[1]
            assert back.messages == stats.messages
            assert back.queue_cycles.hex() == stats.queue_cycles.hex()

    def test_retained_samples_bounded(self):
        stats, breakdown = PhaseStats(), DelayBreakdown()
        values = [i * 0.1 + (i % 7) * 1e-9 for i in range(100_000)]
        for value in values:
            stats.record(*message(q=value, n=value, size=value))
            breakdown.record_ready_queue(value)
        for retained in (stats.queue_values, stats.network_values,
                         stats.byte_values, breakdown.ready_queue_delays):
            assert len(retained) < COMPACT_AT
        breakdown.compact()
        assert len(breakdown.ready_queue_delays) <= 2
        assert stats.queue_cycles == math.fsum(values)
        assert breakdown.mean_ready_queue_delay == math.fsum(values) / len(values)


class TestRecordOnce:
    def test_each_message_recorded_once_on_its_set(self):
        """The per-run breakdown is a merged view of the sets, not a
        second copy of every sample."""
        spec = torus_platform(TorusShape(2, 2, 2))
        system = spec.build_system()
        for size in (64 * 1024, 256 * 1024):
            system.request_collective(CollectiveOp.ALL_REDUCE, size)
        with mock.patch.object(PhaseStats, "record", autospec=True,
                               side_effect=PhaseStats.record) as record:
            system.run_until_idle()
        delivered = system.backend.messages_delivered
        assert record.call_count == delivered
        run = system.breakdown
        # A quotient run: NPU 0's deliveries, each standing for all 8 NPUs'.
        assert sum(s.messages for s in run.phase_stats.values()) == \
            system.topology.num_npus * delivered
        assert run.ready_queue_count == sum(c.num_chunks for c in system.sets)
        for collective in system.sets:
            for stats in collective.breakdown.phase_stats.values():
                assert len(stats.queue_values) <= 2

    def test_each_delivery_recorded_once_under_retransmission(self):
        """A link flap makes the reliable transport time out and resend:
        only the delivery the transport accepts is recorded, once."""
        spec = torus_platform(TorusShape(1, 8, 1), preferred_set_splits=4)
        spec.config = replace(spec.config, system=replace(
            spec.config.system, transport=TransportConfig()))
        spec.fault_schedule = FaultSchedule([
            FaultEvent(time=1000.0, action=FaultAction.LINK_DOWN, link=(1, 2)),
            FaultEvent(time=400_000.0, action=FaultAction.LINK_UP, link=(1, 2)),
        ])
        system = spec.build_system()
        system.request_collective(CollectiveOp.ALL_REDUCE, 1024 * 1024)
        with mock.patch.object(PhaseStats, "record", autospec=True,
                               side_effect=PhaseStats.record) as record:
            system.run_until_idle()
        transport = system.transport_stats()
        assert transport.retries > 0 and transport.recovered > 0
        accepted = transport.messages - transport.failed
        assert record.call_count == accepted
        assert sum(s.messages for s in system.breakdown.phase_stats.values()) == accepted
        assert system.backend.messages_delivered >= accepted


class TestPerSystemChunkIds:
    def test_chunk_numbering_restarts_per_system(self):
        """Chunk ids must depend on this run alone, not on how many
        systems the process built before (they key the PRIORITY-policy
        FIFO tie-break and appear in diagnostics)."""
        spec = torus_platform(TorusShape(2, 2, 2))
        observed = []
        for _ in range(2):
            system = spec.build_system()
            system.scheduler.keep_completed = True
            system.request_collective(CollectiveOp.ALL_REDUCE, 64 * 1024,
                                      name="probe")
            system.run_until_idle()
            ids = sorted(ready.chunk_id for ready, _ in
                         system.scheduler.completed_executions)
            observed.append(ids)
        assert observed[0] == observed[1]
        assert observed[0][0] == 0
        assert observed[0] == list(range(len(observed[0])))

    def test_repeat_runs_bit_identical(self):
        spec = torus_platform(TorusShape(2, 2, 2))
        results = [run_collective(spec, CollectiveOp.ALL_REDUCE, 64 * 1024)
                   for _ in range(2)]
        assert (results[0].duration_cycles == results[1].duration_cycles)
        assert (results[0].breakdown.rows() == results[1].breakdown.rows())
