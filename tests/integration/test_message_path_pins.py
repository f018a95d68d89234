"""Bit-identity pins for the collective layer's per-message path.

Every case runs one collective set and fingerprints what a change to the
send/deliver/record path could disturb: the set's duration, the
per-phase message counts and exact (``float.hex``) queue/network/byte
totals, a digest of the run-cache ``as_dict()`` payload (phase key order
included), the backend's delivery counters and the engine's dispatch and
logical-event counts.  The constants in ``PINS`` were captured from the
reference implementation; a refactor of the hot path must reproduce them
exactly.

The eight ``ring-*-software-*`` cases run as quotient runs (NPU 0
simulated for all 16 NPUs, docs/PERFORMANCE.md): their cycles, phases
and payload are the full run's, while the host counters (``delivered``,
``events``) are NPU 0's.  ``FULL_RUN_PINS`` keeps the full run's
counters, reproduced by the same case under the sanitizer, which forces
the full run.

Regenerate (only for an intentional change to simulated behaviour)::

    PYTHONPATH=src python tests/integration/test_message_path_pins.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.collectives.types import CollectiveOp
from repro.config.parameters import (
    AllToAllShape,
    InjectionPolicy,
    PacketRouting,
    TorusShape,
    TransportConfig,
)
from repro.harness.runners import alltoall_platform, run_collective, torus_platform
from repro.network.fault_schedule import FaultAction, FaultEvent, FaultSchedule

KB = 1024
OPS = {
    "rs": CollectiveOp.REDUCE_SCATTER,
    "ag": CollectiveOp.ALL_GATHER,
    "ar": CollectiveOp.ALL_REDUCE,
    "a2a": CollectiveOp.ALL_TO_ALL,
}


def _with_system(spec, **changes):
    spec.config = replace(spec.config, system=replace(spec.config.system, **changes))
    return spec


def _ring(routing: PacketRouting, injection: InjectionPolicy):
    return _with_system(torus_platform(TorusShape(2, 4, 2), preferred_set_splits=4),
                        packet_routing=routing, injection_policy=injection)


def _direct():
    return alltoall_platform(AllToAllShape(local=2, packages=4), preferred_set_splits=4)


def _detailed_factory(events, network, sanitizer):
    from repro.network.detailed.backend import DetailedBackend

    return DetailedBackend(events, network, sanitizer=sanitizer)


def _detailed():
    spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)
    spec.backend_factory = _detailed_factory
    return spec


def _flap(link_up_at=400_000.0):
    """A 1x8x1 ring with the reliable transport whose 1->2 link goes down
    at t=1000 (and back up at ``link_up_at`` unless it is None)."""
    spec = _with_system(torus_platform(TorusShape(1, 8, 1), preferred_set_splits=4),
                        transport=TransportConfig())
    events = [FaultEvent(time=1000.0, action=FaultAction.LINK_DOWN, link=(1, 2))]
    if link_up_at is not None:
        events.append(FaultEvent(time=link_up_at, action=FaultAction.LINK_UP, link=(1, 2)))
    spec.fault_schedule = FaultSchedule(events)
    return spec


def _cases() -> dict:
    """name -> (platform builder, op, size in bytes, sanitize)."""
    cases = {}
    for routing in PacketRouting:
        for injection in InjectionPolicy:
            for name, op in OPS.items():
                key = f"ring-{name}-{routing.value}-{injection.value}"
                cases[key] = (lambda r=routing, i=injection: _ring(r, i), op, 256 * KB, False)
    for name, op in OPS.items():
        cases[f"direct-{name}"] = (_direct, op, 256 * KB, False)
    for name in ("ar", "a2a"):
        cases[f"detailed-{name}"] = (_detailed, OPS[name], 64 * KB, False)
    cases["fast-ar-sanitized"] = (
        lambda: _ring(PacketRouting.SOFTWARE, InjectionPolicy.NORMAL),
        CollectiveOp.ALL_REDUCE, 256 * KB, True)
    cases["transport-ar"] = (
        lambda: _with_system(torus_platform(TorusShape(2, 4, 2), preferred_set_splits=4),
                             transport=TransportConfig()),
        CollectiveOp.ALL_REDUCE, 256 * KB, False)
    cases["transport-flap-ar"] = (_flap, CollectiveOp.ALL_REDUCE, 1024 * KB, True)
    cases["transport-reroute-ar"] = (
        lambda: _flap(link_up_at=None), CollectiveOp.ALL_REDUCE, 1024 * KB, False)
    return cases


CASES = _cases()


def fingerprint(key: str, sanitize: bool | None = None) -> dict:
    builder, op, size, case_sanitize = CASES[key]
    if sanitize is None:
        sanitize = case_sanitize
    result = run_collective(builder(), op, size, sanitize=sanitize)
    system = result.system
    payload = json.dumps(result.breakdown.as_dict())
    transport = result.transport_stats
    return {
        "cycles": float(result.duration_cycles).hex(),
        "phases": [
            [p, s.messages, s.queue_cycles.hex(), s.network_cycles.hex(), float(s.bytes).hex()]
            for p, s in result.breakdown.phase_stats.items()
        ],
        "payload": hashlib.sha256(payload.encode()).hexdigest()[:16],
        "delivered": [system.backend.messages_delivered,
                      float(system.backend.bytes_delivered).hex()],
        "events": [system.events.events_processed, system.events.events_simulated],
        "transport": transport.as_dict() if transport is not None else None,
    }


PINS: dict = {
    'detailed-a2a': {'cycles': '0x1.4615c9882b932p+10', 'phases': [[1, 32, '0x0.0p+0', '0x1.42fa8d9df51b4p+12', '0x1.0000000000000p+18'], [2, 32, '0x0.0p+0', '0x1.124c415c98825p+14', '0x1.0000000000000p+18'], [3, 32, '0x0.0p+0', '0x1.124c415c98836p+14', '0x1.0000000000000p+18']], 'payload': '8d8e635352714278', 'delivered': [96, '0x1.8000000000000p+19'], 'events': [310, 12480], 'transport': None},
    'detailed-ar': {'cycles': '0x1.452b931057245p+11', 'phases': [[1, 64, '0x0.0p+0', '0x1.2f3bea3677d35p+13', '0x1.0000000000000p+19'], [2, 64, '0x0.0p+0', '0x1.124c415c98824p+15', '0x1.0000000000000p+19'], [3, 64, '0x0.0p+0', '0x1.124c415c98800p+15', '0x1.0000000000000p+19']], 'payload': '85318802eeb65a57', 'delivered': [192, '0x1.8000000000000p+20'], 'events': [428, 24768], 'transport': None},
    'direct-a2a': {'cycles': '0x1.0894415c9882cp+13', 'phases': [[1, 32, '0x1.972620ae4c416p+13', '0x1.c42620ae4c416p+14', '0x1.0000000000000p+20'], [2, 96, '0x1.9077d46cefa8ep+17', '0x1.653e4c415c989p+17', '0x1.8000000000000p+20']], 'payload': '4bba4c79d27936cd', 'delivered': [128, '0x1.4000000000000p+21'], 'events': [31, 288], 'transport': None},
    'direct-ag': {'cycles': '0x1.32a5c9882b931p+12', 'phases': [[1, 96, '0x1.dccefa8d9df51p+16', '0x1.b459310572621p+16', '0x1.8000000000000p+19'], [2, 32, '0x0.0p+0', '0x1.c42620ae4c416p+14', '0x1.0000000000000p+20']], 'payload': 'ef3a4ed44cb415da', 'delivered': [128, '0x1.c000000000000p+20'], 'events': [26, 256], 'transport': None},
    'direct-ar': {'cycles': '0x1.fa323677d46ccp+13', 'phases': [[1, 64, '0x1.105c9882b9310p+15', '0x1.c42620ae4c416p+15', '0x1.0000000000000p+21'], [2, 192, '0x1.0dd86cefa8d9dp+19', '0x1.69377d46cefa6p+18', '0x1.8000000000000p+21']], 'payload': 'dbbe24a6317cdac0', 'delivered': [256, '0x1.4000000000000p+22'], 'events': [35, 512], 'transport': None},
    'direct-rs': {'cycles': '0x1.3525c9882b931p+12', 'phases': [[1, 32, '0x1.972620ae4c416p+13', '0x1.c42620ae4c416p+14', '0x1.0000000000000p+20'], [2, 96, '0x1.4420ae4c415cap+16', '0x1.b459310572622p+16', '0x1.8000000000000p+19']], 'payload': '71dd8bcd67b01a40', 'delivered': [128, '0x1.c000000000000p+20'], 'events': [18, 256], 'transport': None},
    'fast-ar-sanitized': {'cycles': '0x1.ddc8d9df51b3ap+13', 'phases': [[1, 128, '0x1.105c9882b9310p+16', '0x1.c42620ae4c416p+16', '0x1.0000000000000p+22'], [2, 128, '0x0.0p+0', '0x1.174c415c9882cp+18', '0x1.0000000000000p+22'], [3, 384, '0x0.0p+0', '0x1.c872620ae4c3ep+18', '0x1.8000000000000p+22']], 'payload': 'c4558e2d1fd10a83', 'delivered': [640, '0x1.c000000000000p+23'], 'events': [40, 1280], 'transport': None},
    'ring-a2a-hardware-aggressive': {'cycles': '0x1.116afa8d9df50p+14', 'phases': [[1, 64, '0x1.972620ae4c416p+14', '0x1.c42620ae4c416p+15', '0x1.0000000000000p+21'], [2, 64, '0x0.0p+0', '0x1.174c415c9882cp+17', '0x1.0000000000000p+21'], [3, 192, '0x1.acb0a8d9df519p+19', '0x1.2a260ae4c415bp+18', '0x1.8000000000000p+21']], 'payload': 'd5be0b97da50a85b', 'delivered': [320, '0x1.c000000000000p+22'], 'events': [118, 832], 'transport': None},
    'ring-a2a-hardware-normal': {'cycles': '0x1.e575f51b3bea0p+13', 'phases': [[1, 64, '0x1.972620ae4c416p+14', '0x1.c42620ae4c416p+15', '0x1.0000000000000p+21'], [2, 64, '0x0.0p+0', '0x1.174c415c9882cp+17', '0x1.0000000000000p+21'], [3, 192, '0x1.998d882b93102p+17', '0x1.1feb1b3bea366p+18', '0x1.8000000000000p+21']], 'payload': '6664dbc071d1cbd4', 'delivered': [320, '0x1.c000000000000p+22'], 'events': [197, 832], 'transport': None},
    'ring-a2a-software-aggressive': {'cycles': '0x1.48010572620aep+13', 'phases': [[1, 64, '0x1.972620ae4c416p+14', '0x1.c42620ae4c416p+15', '0x1.0000000000000p+21'], [2, 64, '0x0.0p+0', '0x1.174c415c9882cp+17', '0x1.0000000000000p+21'], [3, 384, '0x1.239f51b3bea36p+18', '0x1.c872620ae4c41p+18', '0x1.8000000000000p+22']], 'payload': '4a4a794246149c65', 'delivered': [32, '0x1.4000000000000p+19'], 'events': [43, 76], 'transport': None},
    'ring-a2a-software-normal': {'cycles': '0x1.54810572620adp+13', 'phases': [[1, 64, '0x1.972620ae4c416p+14', '0x1.c42620ae4c416p+15', '0x1.0000000000000p+21'], [2, 64, '0x0.0p+0', '0x1.174c415c9882cp+17', '0x1.0000000000000p+21'], [3, 384, '0x1.c59882b931056p+16', '0x1.c872620ae4c3fp+18', '0x1.8000000000000p+22']], 'payload': '57e3857de032a759', 'delivered': [32, '0x1.4000000000000p+19'], 'events': [45, 76], 'transport': None},
    'ring-ag-hardware-aggressive': {'cycles': '0x1.0fcae4c415c99p+12', 'phases': [[1, 192, '0x0.0p+0', '0x1.54b9310572621p+16', '0x1.8000000000000p+19'], [2, 64, '0x0.0p+0', '0x1.304c415c9882bp+16', '0x1.0000000000000p+20'], [3, 64, '0x1.972620ae4c418p+14', '0x1.c42620ae4c418p+15', '0x1.0000000000000p+21']], 'payload': 'e256badc7f6342ff', 'delivered': [320, '0x1.e000000000000p+21'], 'events': [12, 640], 'transport': None},
    'ring-ag-hardware-normal': {'cycles': '0x1.0fcae4c415c99p+12', 'phases': [[1, 192, '0x0.0p+0', '0x1.54b9310572621p+16', '0x1.8000000000000p+19'], [2, 64, '0x0.0p+0', '0x1.304c415c9882bp+16', '0x1.0000000000000p+20'], [3, 64, '0x1.972620ae4c418p+14', '0x1.c42620ae4c418p+15', '0x1.0000000000000p+21']], 'payload': 'e256badc7f6342ff', 'delivered': [320, '0x1.e000000000000p+21'], 'events': [12, 640], 'transport': None},
    'ring-ag-software-aggressive': {'cycles': '0x1.0fcae4c415c99p+12', 'phases': [[1, 192, '0x0.0p+0', '0x1.54b9310572621p+16', '0x1.8000000000000p+19'], [2, 64, '0x0.0p+0', '0x1.304c415c9882bp+16', '0x1.0000000000000p+20'], [3, 64, '0x1.972620ae4c418p+14', '0x1.c42620ae4c418p+15', '0x1.0000000000000p+21']], 'payload': 'e256badc7f6342ff', 'delivered': [20, '0x1.e000000000000p+17'], 'events': [12, 40], 'transport': None},
    'ring-ag-software-normal': {'cycles': '0x1.0fcae4c415c99p+12', 'phases': [[1, 192, '0x0.0p+0', '0x1.54b9310572621p+16', '0x1.8000000000000p+19'], [2, 64, '0x0.0p+0', '0x1.304c415c9882bp+16', '0x1.0000000000000p+20'], [3, 64, '0x1.972620ae4c418p+14', '0x1.c42620ae4c418p+15', '0x1.0000000000000p+21']], 'payload': 'e256badc7f6342ff', 'delivered': [20, '0x1.e000000000000p+17'], 'events': [12, 40], 'transport': None},
    'ring-ar-hardware-aggressive': {'cycles': '0x1.ddc8d9df51b3ap+13', 'phases': [[1, 128, '0x1.105c9882b9310p+16', '0x1.c42620ae4c416p+16', '0x1.0000000000000p+22'], [2, 128, '0x0.0p+0', '0x1.174c415c9882cp+18', '0x1.0000000000000p+22'], [3, 384, '0x0.0p+0', '0x1.c872620ae4c3ep+18', '0x1.8000000000000p+22']], 'payload': 'c4558e2d1fd10a83', 'delivered': [640, '0x1.c000000000000p+23'], 'events': [40, 1280], 'transport': None},
    'ring-ar-hardware-normal': {'cycles': '0x1.ddc8d9df51b3ap+13', 'phases': [[1, 128, '0x1.105c9882b9310p+16', '0x1.c42620ae4c416p+16', '0x1.0000000000000p+22'], [2, 128, '0x0.0p+0', '0x1.174c415c9882cp+18', '0x1.0000000000000p+22'], [3, 384, '0x0.0p+0', '0x1.c872620ae4c3ep+18', '0x1.8000000000000p+22']], 'payload': 'c4558e2d1fd10a83', 'delivered': [640, '0x1.c000000000000p+23'], 'events': [40, 1280], 'transport': None},
    'ring-ar-software-aggressive': {'cycles': '0x1.ddc8d9df51b3ap+13', 'phases': [[1, 128, '0x1.105c9882b9310p+16', '0x1.c42620ae4c416p+16', '0x1.0000000000000p+22'], [2, 128, '0x0.0p+0', '0x1.174c415c9882cp+18', '0x1.0000000000000p+22'], [3, 384, '0x0.0p+0', '0x1.c872620ae4c3ep+18', '0x1.8000000000000p+22']], 'payload': 'c4558e2d1fd10a83', 'delivered': [40, '0x1.c000000000000p+19'], 'events': [40, 80], 'transport': None},
    'ring-ar-software-normal': {'cycles': '0x1.ddc8d9df51b3ap+13', 'phases': [[1, 128, '0x1.105c9882b9310p+16', '0x1.c42620ae4c416p+16', '0x1.0000000000000p+22'], [2, 128, '0x0.0p+0', '0x1.174c415c9882cp+18', '0x1.0000000000000p+22'], [3, 384, '0x0.0p+0', '0x1.c872620ae4c3ep+18', '0x1.8000000000000p+22']], 'payload': 'c4558e2d1fd10a83', 'delivered': [40, '0x1.c000000000000p+19'], 'events': [40, 80], 'transport': None},
    'ring-rs-hardware-aggressive': {'cycles': '0x1.138ae4c415c98p+12', 'phases': [[1, 64, '0x1.972620ae4c416p+14', '0x1.c42620ae4c416p+15', '0x1.0000000000000p+21'], [2, 64, '0x0.0p+0', '0x1.304c415c9882cp+16', '0x1.0000000000000p+20'], [3, 192, '0x0.0p+0', '0x1.54b931057261ep+16', '0x1.8000000000000p+19']], 'payload': '4e1e396c7c9b49c8', 'delivered': [320, '0x1.e000000000000p+21'], 'events': [20, 640], 'transport': None},
    'ring-rs-hardware-normal': {'cycles': '0x1.138ae4c415c98p+12', 'phases': [[1, 64, '0x1.972620ae4c416p+14', '0x1.c42620ae4c416p+15', '0x1.0000000000000p+21'], [2, 64, '0x0.0p+0', '0x1.304c415c9882cp+16', '0x1.0000000000000p+20'], [3, 192, '0x0.0p+0', '0x1.54b931057261ep+16', '0x1.8000000000000p+19']], 'payload': '4e1e396c7c9b49c8', 'delivered': [320, '0x1.e000000000000p+21'], 'events': [20, 640], 'transport': None},
    'ring-rs-software-aggressive': {'cycles': '0x1.138ae4c415c98p+12', 'phases': [[1, 64, '0x1.972620ae4c416p+14', '0x1.c42620ae4c416p+15', '0x1.0000000000000p+21'], [2, 64, '0x0.0p+0', '0x1.304c415c9882cp+16', '0x1.0000000000000p+20'], [3, 192, '0x0.0p+0', '0x1.54b931057261ep+16', '0x1.8000000000000p+19']], 'payload': '4e1e396c7c9b49c8', 'delivered': [20, '0x1.e000000000000p+17'], 'events': [20, 40], 'transport': None},
    'ring-rs-software-normal': {'cycles': '0x1.138ae4c415c98p+12', 'phases': [[1, 64, '0x1.972620ae4c416p+14', '0x1.c42620ae4c416p+15', '0x1.0000000000000p+21'], [2, 64, '0x0.0p+0', '0x1.304c415c9882cp+16', '0x1.0000000000000p+20'], [3, 192, '0x0.0p+0', '0x1.54b931057261ep+16', '0x1.8000000000000p+19']], 'payload': '4e1e396c7c9b49c8', 'delivered': [20, '0x1.e000000000000p+17'], 'events': [20, 40], 'transport': None},
    'transport-ar': {'cycles': '0x1.ddc8d9df51b3ap+13', 'phases': [[1, 128, '0x1.105c9882b9310p+16', '0x1.c42620ae4c416p+16', '0x1.0000000000000p+22'], [2, 128, '0x0.0p+0', '0x1.174c415c9882cp+18', '0x1.0000000000000p+22'], [3, 384, '0x0.0p+0', '0x1.c872620ae4c3ep+18', '0x1.8000000000000p+22']], 'payload': 'c4558e2d1fd10a83', 'delivered': [640, '0x1.c000000000000p+23'], 'events': [40, 1280], 'transport': {'messages': 640, 'sends': 640, 'timeouts': 0, 'retries': 0, 'paused_waits': 0, 'recovered': 0, 'failed': 0, 'drops': 0}},
    'transport-flap-ar': {'cycles': '0x1.1c69ce75dfcbcp+19', 'phases': [[1, 448, '0x1.391b953978000p+9', '0x1.e8c572620ae31p+19', '0x1.c000000000000p+23']], 'payload': '5213cb6d56c357f9', 'delivered': [448, '0x1.c000000000000p+23'], 'events': [430, 994], 'transport': {'messages': 448, 'sends': 496, 'timeouts': 48, 'retries': 48, 'paused_waits': 0, 'recovered': 16, 'failed': 0, 'drops': 48}},
    'transport-reroute-ar': {'cycles': '0x1.7653ae0b6025fp+20', 'phases': [[1, 448, '0x1.e9928df9618e6p+20', '0x1.3819d9df51ca1p+20', '0x1.c000000000000p+23']], 'payload': '1b4751e7ed98a1ef', 'delivered': [448, '0x1.c000000000000p+23'], 'events': [541, 1105], 'transport': {'messages': 464, 'sends': 560, 'timeouts': 112, 'retries': 96, 'paused_waits': 0, 'recovered': 0, 'failed': 16, 'drops': 112}},
}


#: The full run's host counters of the quotient-run cases (see the
#: module docstring); everything else of the full run is ``PINS``.
FULL_RUN_PINS: dict = {
    'ring-a2a-software-aggressive': {'delivered': [512, '0x1.4000000000000p+23'], 'events': [43, 1216]},
    'ring-a2a-software-normal': {'delivered': [512, '0x1.4000000000000p+23'], 'events': [165, 1216]},
    'ring-ag-software-aggressive': {'delivered': [320, '0x1.e000000000000p+21'], 'events': [12, 640]},
    'ring-ag-software-normal': {'delivered': [320, '0x1.e000000000000p+21'], 'events': [12, 640]},
    'ring-ar-software-aggressive': {'delivered': [640, '0x1.c000000000000p+23'], 'events': [40, 1280]},
    'ring-ar-software-normal': {'delivered': [640, '0x1.c000000000000p+23'], 'events': [40, 1280]},
    'ring-rs-software-aggressive': {'delivered': [320, '0x1.e000000000000p+21'], 'events': [20, 640]},
    'ring-rs-software-normal': {'delivered': [320, '0x1.e000000000000p+21'], 'events': [20, 640]},
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_message_path_bit_identical(key):
    assert fingerprint(key) == PINS[key]


@pytest.mark.parametrize("key", sorted(FULL_RUN_PINS))
def test_full_run_reproduces_quotient_case(key):
    """The sanitized (full) run of a quotient-run case delivers every
    NPU's messages and lands on the same cycles, phases and payload."""
    full = fingerprint(key, sanitize=True)
    assert {k: full[k] for k in ("delivered", "events")} == FULL_RUN_PINS[key]
    assert {k: v for k, v in full.items() if k not in ("delivered", "events")} == \
        {k: v for k, v in PINS[key].items() if k not in ("delivered", "events")}


def test_fault_cases_take_the_retry_and_reroute_paths():
    assert PINS["transport-flap-ar"]["transport"]["retries"] > 0
    assert PINS["transport-reroute-ar"]["transport"]["failed"] > 0


if __name__ == "__main__":
    print("PINS = {")
    for key in sorted(CASES):
        print(f"    {key!r}: {fingerprint(key)!r},")
    print("}")
