"""Failure context propagation through hierarchical multi-phase plans.

When a phase of a multi-dimensional collective dies for good, the
``CollectiveError`` must name *which* phase of *which* plan over *which*
dimension got stuck — "message 6->2 gave up" alone is useless in a
3-phase hierarchical all-reduce spanning three torus dimensions.
"""

from dataclasses import replace

import pytest

from repro.collectives import CollectiveContext
from repro.collectives.direct_algorithms import DirectAllReduce
from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape, TransportConfig
from repro.errors import CollectiveError
from repro.events import EventQueue
from repro.harness.runners import run_collective, torus_platform
from repro.network import FastBackend
from repro.network.fault_schedule import FaultAction, FaultEvent, FaultSchedule, FaultState
from repro.system import ReliableTransport

from collective_helpers import IDEAL_NET, make_switches

FAST_FAIL = TransportConfig(timeout_cycles=2_000.0, timeout_per_byte=0.5,
                            max_retries=2, backoff_base_cycles=100.0,
                            backoff_max_cycles=1_000.0, jitter=0.0)


def faulty_spec(dead_links):
    """A 2x2x2 torus with fast-fail transport and links down from t=0."""
    spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
    spec.config = replace(
        spec.config, system=replace(spec.config.system, transport=FAST_FAIL))
    spec.fault_schedule = FaultSchedule([
        FaultEvent(time=0.0, action=FaultAction.LINK_DOWN, link=link)
        for link in dead_links
    ])
    return spec


class TestHierarchicalContext:
    def test_dead_dimension_names_phase_and_dimension(self):
        """Both directions of the 2<->6 vertical link are down, so even
        the counter-rotating spare ring cannot route around it; the error
        must carry the hierarchical plan position, not just the message."""
        with pytest.raises(CollectiveError) as excinfo:
            run_collective(faulty_spec([(2, 6), (6, 2)]),
                           CollectiveOp.ALL_REDUCE, 256 * 1024)
        message = str(excinfo.value)
        assert "phase " in message
        assert "of set" in message  # "... of set0/c..": the owning plan
        assert "allreduce over" in message
        assert "stuck ranks" in message
        assert "transport gave up" in message

    def test_context_names_the_dimension_of_the_dead_link(self):
        """The 2<->6 hop is a VERTICAL-dimension ring edge on 2x2x2; a
        failure there must not be attributed to another dimension."""
        with pytest.raises(CollectiveError, match="VERTICAL"):
            run_collective(faulty_spec([(2, 6), (6, 2)]),
                           CollectiveOp.ALL_REDUCE, 256 * 1024)

    def test_degraded_link_completes_without_error(self):
        """Sanity check on the scenario above: a merely *degraded* link on
        the same hop slows the phase down but never raises."""
        spec = faulty_spec([])
        spec.fault_schedule = FaultSchedule([
            FaultEvent(time=0.0, action=FaultAction.LINK_DEGRADE,
                       link=(2, 6), bandwidth_factor=0.25,
                       extra_latency_cycles=500.0),
        ])
        healthy = run_collective(faulty_spec([]), CollectiveOp.ALL_REDUCE,
                                 256 * 1024)
        degraded = run_collective(spec, CollectiveOp.ALL_REDUCE, 256 * 1024)
        assert degraded.duration_cycles > healthy.duration_cycles


class TestDirectContext:
    def make_allreduce(self):
        events = EventQueue()
        backend = FastBackend(events, IDEAL_NET)
        backend.faults = FaultState()
        transport = ReliableTransport(backend, FAST_FAIL)
        ctx = CollectiveContext(transport, endpoint_delay_cycles=10.0,
                                reduction_cycles_per_kb=0.0)
        nodes = [0, 1, 2, 3]
        switches = make_switches(2, nodes)
        allreduce = DirectAllReduce(ctx, nodes, switches, 64 * 1024,
                                    label="dar")
        return events, backend.faults, switches, allreduce

    def test_setter_forwards_to_both_stages(self):
        _, _, _, allreduce = self.make_allreduce()
        allreduce.fail_context = "phase 9/9 (allreduce over ALLTOALL) of x"
        assert allreduce._scatter.fail_context == allreduce.fail_context
        assert allreduce._gather.fail_context == allreduce.fail_context

    def test_fail_fast_message_carries_context_and_switch(self):
        events, faults, switches, allreduce = self.make_allreduce()
        allreduce.fail_context = "phase 2/3 (allreduce over ALLTOALL) of t"
        faults.down.add((0, switches[0].switch_id))  # kill node 0's uplink
        with pytest.raises(CollectiveError) as excinfo:
            allreduce.start_all()
            events.run(max_events=1_000_000)
        message = str(excinfo.value)
        assert "in phase 2/3 (allreduce over ALLTOALL) of t" in message
        assert "switch" in message
        assert "stuck ranks" in message
