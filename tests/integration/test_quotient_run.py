"""The quotient run is the full run, with NPU 0 simulated for every NPU.

On a ring-only fabric every NPU is a translate of every other, so
:class:`repro.system.sys_layer.System` simulates NPU 0 alone and counts
each of its messages once per NPU (docs/PERFORMANCE.md, "Quotient run").
The sanitizer forces the full run, so a sanitized run of the same input
is the reference: cycles (``float.hex``), the Fig. 12b breakdown payload
and per-layer training reports must be bit-identical, and the backend
delivers N times as many messages in the full run.  Inputs that can
break the symmetry must keep the full run.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.types import CollectiveOp
from repro.config.parameters import (
    CollectiveAlgorithm,
    InjectionPolicy,
    PacketRouting,
    SchedulingPolicy,
    SimulationConfig,
    SystemConfig,
    TorusShape,
    TransportConfig,
)
from repro.config.presets import paper_network_config
from repro.errors import SimulationError
from repro.events.engine import EventQueue
from repro.harness.runners import run_collective, run_training, torus_platform
from repro.models.dlrm import dlrm
from repro.models.resnet50 import resnet50
from repro.models.transformer import transformer
from repro.network.faults import degrade_link
from repro.sanitize.runtime import RuntimeSanitizer
from repro.sanitize.schedule import SeededTieBreak
from repro.system.sys_layer import System
from repro.topology.auto_map import map_torus_onto_fabric
from repro.topology.logical import build_torus_topology

KB = 1024


def _platform(shape, algorithm=CollectiveAlgorithm.BASELINE,
              policy=SchedulingPolicy.LIFO, splits=4, rings=(2, 1, 1),
              **system_changes):
    spec = torus_platform(TorusShape(*shape), algorithm=algorithm,
                          scheduling_policy=policy, preferred_set_splits=splits,
                          local_rings=rings[0], horizontal_rings=rings[1],
                          vertical_rings=rings[2])
    if system_changes:
        spec.config = replace(spec.config,
                              system=replace(spec.config.system, **system_changes))
    return spec


def _collective_fingerprint(result) -> dict:
    return {
        "cycles": float(result.duration_cycles).hex(),
        "breakdown": json.dumps(result.breakdown.as_dict()),
        "rows": [{k: float(v).hex() for k, v in row.items()}
                 for row in result.breakdown.rows()],
    }


def _training_fingerprint(report, system) -> dict:
    return {
        "cycles": float(report.total_cycles).hex(),
        "iteration_ends": [float(t).hex() for t in report.iteration_ends],
        "layers": [
            (layer.name,
             [float(v).hex() for v in layer.compute_cycles.values()],
             [float(v).hex() for v in layer.comm_cycles.values()],
             [float(v).hex() for v in layer.comm_bytes.values()],
             float(layer.exposed_cycles).hex())
            for layer in report.layers
        ],
        "breakdown": json.dumps(system.breakdown.as_dict()),
    }


def _assert_quotient_equals_full(quotient_system, full_system) -> None:
    """The default run was a quotient run: the full run delivered one
    message per NPU for each of its messages."""
    n = quotient_system.topology.num_npus
    assert full_system.backend.messages_delivered == \
        n * quotient_system.backend.messages_delivered
    assert sum(s.messages for s in quotient_system.breakdown.phase_stats.values()) \
        == full_system.backend.messages_delivered


# -- the property --------------------------------------------------------------

dims = st.integers(min_value=1, max_value=4)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(dims, dims, dims).filter(lambda s: max(s) > 1),
    op=st.sampled_from([CollectiveOp.REDUCE_SCATTER, CollectiveOp.ALL_GATHER,
                        CollectiveOp.ALL_REDUCE, CollectiveOp.ALL_TO_ALL]),
    algorithm=st.sampled_from(list(CollectiveAlgorithm)),
    policy=st.sampled_from(list(SchedulingPolicy)),
    injection=st.sampled_from(list(InjectionPolicy)),
    splits=st.integers(min_value=1, max_value=8),
    rings=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2)),
    size_kb=st.integers(min_value=1, max_value=512),
)
def test_quotient_run_is_bit_identical_to_full_run(shape, op, algorithm, policy,
                                                   injection, splits, rings, size_kb):
    spec = _platform(shape, algorithm, policy, splits, rings,
                     injection_policy=injection)
    quotient = run_collective(spec, op, size_kb * KB)
    full = run_collective(spec, op, size_kb * KB, sanitize=True)
    assert _collective_fingerprint(quotient) == _collective_fingerprint(full)
    _assert_quotient_equals_full(quotient.system, full.system)


@pytest.mark.parametrize("shape", [(4, 4, 4), (3, 3, 2), (1, 4, 4), (4, 1, 1)])
def test_larger_shapes(shape):
    """Every op and algorithm at the largest and the odd shapes, which
    small generated examples reach only rarely."""
    cases = [(op, algorithm) for op in (CollectiveOp.REDUCE_SCATTER,
                                        CollectiveOp.ALL_GATHER,
                                        CollectiveOp.ALL_REDUCE,
                                        CollectiveOp.ALL_TO_ALL)
             for algorithm in CollectiveAlgorithm]
    for i, (op, algorithm) in enumerate(cases):
        spec = _platform(shape, algorithm, list(SchedulingPolicy)[i % 3], 8, (3, 2, 2),
                         injection_policy=list(InjectionPolicy)[i % 2])
        quotient = run_collective(spec, op, 200 * KB)
        full = run_collective(spec, op, 200 * KB, sanitize=True)
        assert _collective_fingerprint(quotient) == _collective_fingerprint(full)
        _assert_quotient_equals_full(quotient.system, full.system)


def _run_sets(spec, ops, sanitize=False, tie_breaker=None):
    events = None
    if tie_breaker is not None:
        events = EventQueue()
        events.tie_breaker = tie_breaker
    system = spec.build_system(sanitize=sanitize, events=events)
    sets = [system.request_collective(op, size * KB) for op, size in ops]
    system.run_until_idle()
    return (tuple(float(s.duration_cycles).hex() for s in sets),
            json.dumps(system.breakdown.as_dict())), system


@pytest.mark.parametrize("shape", [(2, 4, 2), (2, 2, 2), (4, 2, 1), (1, 4, 4)])
@pytest.mark.parametrize("ops", [
    ((CollectiveOp.ALL_REDUCE, 256), (CollectiveOp.ALL_TO_ALL, 48),
     (CollectiveOp.REDUCE_SCATTER, 300)),
    ((CollectiveOp.ALL_GATHER, 100), (CollectiveOp.REDUCE_SCATTER, 300),
     (CollectiveOp.ALL_TO_ALL, 30)),
], ids=["ar-a2a-rs", "ag-rs-a2a"])
def test_sets_requested_together(shape, ops):
    """Sets of different sizes and ops requested at the same instant.

    A message of one set and one of another can then reach the same link
    in the same cycle, and which goes first is the order of their events.
    Where the full run does not depend on that order (the contract of
    docs/DETERMINISM.md), the quotient run equals it bit for bit.  Where
    the full run itself changes under a seeded same-timestamp
    permutation, NPU 0's order is one more such schedule, and the two
    may differ (on 4x2x1 and 1x4x4 here; see ROADMAP).
    """
    spec = _platform(shape, policy=SchedulingPolicy.LIFO)
    quotient, quotient_system = _run_sets(spec, ops)
    full, full_system = _run_sets(spec, ops, sanitize=True)
    _assert_quotient_equals_full(quotient_system, full_system)
    if quotient != full:
        permuted = {_run_sets(spec, ops, tie_breaker=SeededTieBreak(seed))[0]
                    for seed in range(4)}
        assert permuted - {full}, "quotient run differs from a schedule-independent full run"


# -- training steps --------------------------------------------------------------

def _resnet(platform):
    return resnet50(compute=platform.config.compute, minibatch=32)


def _transformer(platform):
    return transformer(compute=platform.config.compute, model_parallel_degree=4)


def _dlrm(platform):
    return dlrm(compute=platform.config.compute)


@pytest.mark.parametrize("model, shape, policy", [
    (_resnet, (2, 2, 2), SchedulingPolicy.LIFO),
    (_resnet, (2, 2, 2), SchedulingPolicy.PRIORITY),
    (_transformer, (2, 4, 4), SchedulingPolicy.LIFO),
    (_dlrm, (2, 4, 4), SchedulingPolicy.LIFO),
], ids=["resnet50-2x2x2", "resnet50-2x2x2-priority", "transformer-2x4x4",
        "dlrm-2x4x4"])
def test_training_step_is_bit_identical(model, shape, policy):
    platform = _platform(shape, CollectiveAlgorithm.ENHANCED, policy, splits=16)
    quotient, quotient_system = run_training(model(platform), platform,
                                             num_iterations=1)
    full, full_system = run_training(model(platform), platform, num_iterations=1,
                                     sanitize=True)
    assert _training_fingerprint(quotient, quotient_system) == \
        _training_fingerprint(full, full_system)
    _assert_quotient_equals_full(quotient_system, full_system)


# -- inputs that keep the full run -------------------------------------------------

NET = paper_network_config()


def _hand_built(shape=(2, 2, 2), topology=None, sanitize=False, **system_changes):
    config = SystemConfig(preferred_set_splits=4, **system_changes)
    topology = topology or build_torus_topology(TorusShape(*shape), NET, config)
    return System(topology, SimulationConfig(system=config, network=NET),
                  sanitizer=RuntimeSanitizer() if sanitize else None)


def _degraded(sanitize):
    system = _hand_built(sanitize=sanitize)
    degrade_link(system.topology.fabric.links[5], bandwidth_factor=0.5)
    return system


def _hardware(sanitize):
    return _hand_built(sanitize=sanitize, packet_routing=PacketRouting.HARDWARE)


def _mapped(sanitize):
    physical = build_torus_topology(TorusShape(1, 8, 1), NET,
                                    SystemConfig(horizontal_rings=1)).fabric
    return _hand_built(topology=map_torus_onto_fabric(TorusShape(2, 2, 2), physical),
                       sanitize=sanitize)


def _transport(sanitize):
    return _hand_built(sanitize=sanitize, transport=TransportConfig())


def _p2p_first(sanitize):
    system = _hand_built(sanitize=sanitize)
    system.request_p2p(0, 5, 64 * KB)
    return system


@pytest.mark.parametrize("build", [_degraded, _hardware, _mapped, _transport,
                                   _p2p_first],
                         ids=["degraded-link", "hardware-routing", "mapped-ring",
                              "transport", "p2p-first"])
def test_symmetry_breakers_keep_the_full_run(build):
    runs = []
    for sanitize in (False, True):
        system = build(sanitize)
        collective = system.request_collective(CollectiveOp.ALL_TO_ALL, 128 * KB)
        system.run_until_idle()
        runs.append((float(collective.duration_cycles).hex(),
                     json.dumps(system.breakdown.as_dict()),
                     system.events.events_simulated,
                     system.backend.messages_delivered))
    assert runs[0] == runs[1]


def test_p2p_after_a_quotient_collective_ran_raises():
    system = _hand_built()
    system.request_collective(CollectiveOp.ALL_REDUCE, 64 * KB)
    system.run_until_idle()
    with pytest.raises(SimulationError, match="quotient run"):
        system.request_p2p(0, 5, 64 * KB)


def test_p2p_before_the_first_event_raises():
    """A quotient run is chosen at the first collective request; a
    point-to-point request after it raises even before any event fired."""
    system = _hand_built()
    system.request_collective(CollectiveOp.ALL_REDUCE, 256 * KB)
    with pytest.raises(SimulationError, match="quotient run"):
        system.request_p2p(0, 7, 256 * KB)
    assert system.events.events_processed == 0
