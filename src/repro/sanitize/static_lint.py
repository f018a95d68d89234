"""Static lint pass over fully-assembled simulation runs.

Checks everything that can be checked *before* the first event fires:

* parameter-level unit consistency and ranges (on the raw dict, so a bad
  file yields findings with parameter paths instead of one exception),
* cross-parameter consistency — flit width divides packet size, message
  quantum fits a packet, bandwidth hierarchy sanity,
* logical-topology structure — dimension products match the NPU count,
  logical→physical group mappings are bijections, channel uniformity,
* fault-injection factors in range for the target fabric.

The entry points mirror how runs are assembled: :func:`lint_config` for
a constructed :class:`SimulationConfig`, :func:`lint_run_spec` /
:func:`lint_spec_file` for JSON run specs, :func:`lint_platform` for a
harness :class:`PlatformSpec`, :func:`lint_presets` for everything
shipped in :mod:`repro.config.presets`, and :func:`lint_search_space`
for `astra-repro search` space documents (routed automatically by
:func:`lint_run_spec` when a JSON file declares ``axes``).  Service
payloads (the ``astra-repro serve`` POST body; docs/SERVICE.md) route to
:func:`repro.service.schema.lint_payload` when a document carries
``op``/``size_mb``, so the daemon's admission schema is lintable offline.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Optional

from repro.config.io import config_from_dict
from repro.config.parameters import (
    AllToAllShape,
    ComputeConfig,
    LinkConfig,
    NetworkConfig,
    SimulationConfig,
    SystemConfig,
    TopologyKind,
    TorusShape,
)
from repro.config.units import Clock
from repro.errors import ConfigError, ReproError
from repro.sanitize.findings import Finding, LintReport, Severity

#: Top-level keys a run-spec JSON document may carry.
RUN_SPEC_KEYS = {"config", "topology", "expected_npus", "faults",
                 "fault_schedule", "supervision"}

#: Keys of the ``supervision`` section of a run spec
#: (:class:`repro.parallel.supervisor.SupervisionPolicy` fields; docs/SUPERVISION.md).
SUPERVISION_KEYS = {"point_timeout_s", "point_event_budget", "max_retries",
                    "backoff_base_s", "backoff_factor", "backoff_max_s",
                    "seed", "on_poison", "poll_interval_s"}

#: Keys of the ``topology`` section of a run spec.
TOPOLOGY_KEYS = {"kind", "shape"}

#: Keys of the ``faults`` section of a run spec.
FAULT_KEYS = {"count", "bandwidth_factor", "extra_latency_cycles", "kind", "seed"}

_SECTION_TYPES = {
    "system": SystemConfig,
    "compute": ComputeConfig,
    "clock": Clock,
}

#: (section path, field, check, message) — raw-value range rules that give
#: the parameter path in the finding instead of a bare ConfigError.
_POSITIVE = ("must be positive", lambda v: v > 0)
_NON_NEGATIVE = ("must be >= 0", lambda v: v >= 0)
_LINK_RULES = {
    "bandwidth_gbps": _POSITIVE,
    "latency_cycles": _NON_NEGATIVE,
    "packet_size_bytes": _POSITIVE,
    "efficiency": ("must be in (0, 1]", lambda v: 0 < v <= 1),
    "quantum_overhead_cycles": _NON_NEGATIVE,
}
_NETWORK_RULES = {
    "flit_width_bits": _POSITIVE,
    "router_latency_cycles": _NON_NEGATIVE,
    "vcs_per_vnet": _POSITIVE,
    "buffers_per_vc": _POSITIVE,
    "switch_latency_cycles": _NON_NEGATIVE,
}
_SYSTEM_RULES = {
    "local_rings": ("must be >= 1", lambda v: v >= 1),
    "vertical_rings": ("must be >= 1", lambda v: v >= 1),
    "horizontal_rings": ("must be >= 1", lambda v: v >= 1),
    "global_switches": ("must be >= 1", lambda v: v >= 1),
    "endpoint_delay_cycles": _NON_NEGATIVE,
    "preferred_set_splits": ("must be >= 1", lambda v: v >= 1),
    "dispatch_threshold": ("must be >= 1", lambda v: v >= 1),
    "dispatch_batch": ("must be >= 1", lambda v: v >= 1),
    "reduction_cycles_per_kb": _NON_NEGATIVE,
}
_TRANSPORT_RULES = {
    "timeout_cycles": _POSITIVE,
    "timeout_per_byte": _NON_NEGATIVE,
    "max_retries": _NON_NEGATIVE,
    "backoff_base_cycles": _NON_NEGATIVE,
    "backoff_factor": ("must be >= 1", lambda v: v >= 1),
    "backoff_max_cycles": _NON_NEGATIVE,
    "jitter": ("must be in [0, 1]", lambda v: 0 <= v <= 1),
}
_SUPERVISION_RULES = {
    "point_timeout_s": _POSITIVE,
    "point_event_budget": ("must be >= 1", lambda v: v >= 1),
    "max_retries": _NON_NEGATIVE,
    "backoff_base_s": _NON_NEGATIVE,
    "backoff_factor": ("must be >= 1", lambda v: v >= 1),
    "backoff_max_s": _NON_NEGATIVE,
    "poll_interval_s": _POSITIVE,
}


def _known_fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _check_rules(report: LintReport, data: dict, rules: dict, prefix: str) -> None:
    for name, (msg, predicate) in rules.items():
        value = data.get(name)
        if value is None or isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if not predicate(value):
            report.add(Severity.ERROR, "out-of-range", f"{prefix}.{name}",
                       f"{msg}, got {value}")


def _check_unknown_keys(report: LintReport, data: dict, known: set[str],
                        prefix: str) -> None:
    for key in data:
        if key not in known:
            hint = _closest(key, known)
            suffix = f" (did you mean {hint!r}?)" if hint else ""
            report.add(Severity.ERROR, "unknown-parameter",
                       f"{prefix}.{key}" if prefix else key,
                       f"unknown parameter{suffix}")


def _closest(key: str, known: set[str]) -> Optional[str]:
    """Cheap typo suggestion: a known key sharing a long prefix/suffix."""
    candidates = [k for k in known
                  if k.startswith(key[:4]) or k.endswith(key[-4:])]
    return min(candidates, key=len) if candidates else None


# -- config-level lint ----------------------------------------------------------


def _lint_link(report: LintReport, link: LinkConfig, flit_bytes: int,
               prefix: str) -> None:
    if link.packet_size_bytes < flit_bytes:
        report.add(
            Severity.ERROR, "flit-packet-misalignment",
            f"{prefix}.packet_size_bytes",
            f"packet size {link.packet_size_bytes} B is smaller than the "
            f"{flit_bytes} B flit; every packet would waste a partial flit",
        )
    elif link.packet_size_bytes % flit_bytes != 0:
        report.add(
            Severity.ERROR, "flit-packet-misalignment",
            f"{prefix}.packet_size_bytes",
            f"packet size {link.packet_size_bytes} B is not a multiple of "
            f"the {flit_bytes} B flit width; the detailed backend would pad "
            f"every packet's tail flit",
        )
    if (link.message_quantum_bytes is not None
            and link.message_quantum_bytes > link.packet_size_bytes):
        # INFO only: the shipped Table III defaults have a 512 B quantum
        # over 256 B packets, so this is expected on the paper platforms.
        report.add(
            Severity.INFO, "quantum-exceeds-packet",
            f"{prefix}.message_quantum_bytes",
            f"message quantum {link.message_quantum_bytes} B exceeds the "
            f"packet size {link.packet_size_bytes} B; endpoint overheads "
            f"are charged per quantum, coarser than packetization",
        )
    if link.efficiency < 0.5:
        report.add(
            Severity.WARNING, "low-link-efficiency",
            f"{prefix}.efficiency",
            f"efficiency {link.efficiency} means headers outweigh payload; "
            f"Table III quotes 0.94",
        )


def lint_config(config: SimulationConfig, source: str = "") -> list[Finding]:
    """Cross-parameter consistency checks on a constructed config."""
    report = LintReport(source=source)
    network = config.network
    if network is not None:
        if network.flit_width_bits % 8 != 0:
            report.add(
                Severity.ERROR, "flit-width-not-byte-aligned",
                "network.flit_width_bits",
                f"flit width {network.flit_width_bits} bits is not a whole "
                f"number of bytes",
            )
        else:
            flit_bytes = network.flit_width_bytes
            _lint_link(report, network.local_link, flit_bytes,
                       "network.local_link")
            _lint_link(report, network.package_link, flit_bytes,
                       "network.package_link")
        if (network.local_link.bandwidth_gbps
                < network.package_link.bandwidth_gbps):
            report.add(
                Severity.WARNING, "inverted-bandwidth-hierarchy",
                "network.local_link.bandwidth_gbps",
                f"intra-package links ({network.local_link.bandwidth_gbps} "
                f"GB/s) are slower than inter-package links "
                f"({network.package_link.bandwidth_gbps} GB/s); the paper's "
                f"hierarchy assumes the opposite",
            )
    if not 1e6 <= config.clock.frequency_hz <= 1e11:
        report.add(
            Severity.WARNING, "implausible-clock", "clock.frequency_hz",
            f"{config.clock.frequency_hz} Hz is outside the plausible "
            f"1 MHz - 100 GHz range; check the cycle <-> seconds mapping",
        )
    if config.system.dispatch_threshold > config.system.dispatch_batch:
        report.add(
            Severity.INFO, "dispatch-threshold-exceeds-batch",
            "system.dispatch_threshold",
            f"threshold {config.system.dispatch_threshold} > batch "
            f"{config.system.dispatch_batch}: the dispatcher refills less "
            f"than one threshold per round",
        )
    return report.findings


def lint_config_dict(
    data: dict, source: str = ""
) -> tuple[Optional[SimulationConfig], list[Finding]]:
    """Lint a raw SimulationConfig dict, then construct it.

    Raw-level rules fire first so a bad file produces parameter-anchored
    findings; construction catches whatever the rules do not cover.
    """
    report = LintReport(source=source)
    _check_unknown_keys(report, data,
                        {"system", "network", "compute", "clock", "num_passes"},
                        "")
    for section, cls in _SECTION_TYPES.items():
        sub = data.get(section)
        if isinstance(sub, dict):
            _check_unknown_keys(report, sub, _known_fields(cls), section)
    network_data = data.get("network")
    if isinstance(network_data, dict):
        _check_unknown_keys(report, network_data, _known_fields(NetworkConfig),
                            "network")
        _check_rules(report, network_data, _NETWORK_RULES, "network")
        for link_key in ("local_link", "package_link"):
            link_data = network_data.get(link_key)
            if isinstance(link_data, dict):
                _check_unknown_keys(report, link_data,
                                    _known_fields(LinkConfig),
                                    f"network.{link_key}")
                _check_rules(report, link_data, _LINK_RULES,
                             f"network.{link_key}")
    system_data = data.get("system")
    if isinstance(system_data, dict):
        _check_rules(report, system_data, _SYSTEM_RULES, "system")
        transport_data = system_data.get("transport")
        if isinstance(transport_data, dict):
            from repro.config.parameters import TransportConfig

            _check_unknown_keys(report, transport_data,
                                _known_fields(TransportConfig),
                                "system.transport")
            _check_rules(report, transport_data, _TRANSPORT_RULES,
                         "system.transport")
            base = transport_data.get("backoff_base_cycles")
            cap = transport_data.get("backoff_max_cycles")
            if (isinstance(base, (int, float)) and isinstance(cap, (int, float))
                    and not isinstance(base, bool) and not isinstance(cap, bool)
                    and cap < base):
                report.add(
                    Severity.ERROR, "out-of-range",
                    "system.transport.backoff_max_cycles",
                    f"backoff cap {cap} is below the base backoff {base}",
                )
    if report.errors:
        return None, report.findings

    try:
        config = config_from_dict(data)
    except ConfigError as exc:
        report.add(Severity.ERROR, "config-error", "config", str(exc))
        return None, report.findings
    report.extend(lint_config(config, source=source))
    return config, report.findings


# -- topology lint --------------------------------------------------------------


def parse_shape(spec: str) -> tuple[int, ...]:
    """Parse an ``MxN`` / ``MxNxK`` shape string (lint-friendly errors)."""
    try:
        return tuple(int(tok) for tok in str(spec).lower().split("x"))
    except ValueError:
        raise ConfigError(
            f"bad shape {spec!r}; expected e.g. 2x4x4 or 4x16"
        ) from None


def lint_fabric_structure(topology, source: str = "") -> list[Finding]:
    """Structural checks on a built logical topology.

    Verifies the invariants collective composition depends on: the
    logical→physical mapping (``group_of``) assigns every NPU to exactly
    one registered group per dimension, group sizes are uniform and their
    product matches the NPU count, every group's channels actually span
    its members, and channel counts are uniform across groups.
    """
    report = LintReport(source=source)
    fabric = topology.fabric

    product = 1
    for dim in fabric.dimensions:
        groups = fabric.groups(dim)
        membership: dict = {g: set() for g in groups}
        unmapped: list[int] = []
        for npu in range(fabric.num_npus):
            try:
                group = fabric.group_of(dim, npu)
            except ReproError:
                unmapped.append(npu)
                continue
            if group not in membership:
                report.add(
                    Severity.ERROR, "mapping-not-bijective",
                    f"topology.{dim.value}",
                    f"NPU {npu} maps to group {group}, which has no "
                    f"registered channels",
                )
                continue
            membership[group].add(npu)
        if unmapped:
            report.add(
                Severity.ERROR, "mapping-not-bijective",
                f"topology.{dim.value}",
                f"NPUs {unmapped} map to no {dim.value} group; the "
                f"logical→physical mapping must cover every NPU exactly once",
            )
        empty = [g for g, members in membership.items() if not members]
        if empty:
            report.add(
                Severity.ERROR, "mapping-not-bijective",
                f"topology.{dim.value}",
                f"groups {empty} have channels but no member NPUs",
            )
        sizes = {len(members) for members in membership.values() if members}
        if len(sizes) > 1:
            report.add(
                Severity.ERROR, "non-uniform-groups",
                f"topology.{dim.value}",
                f"groups have different sizes: {sorted(sizes)}",
            )
        elif sizes:
            product *= min(sizes)

        for group, channels in groups.items():
            members = membership.get(group, set())
            for channel in channels:
                missing = sorted(members - set(channel.nodes))
                if missing:
                    report.add(
                        Severity.ERROR, "channel-missing-nodes",
                        f"topology.{dim.value}.group{group}",
                        f"channel {getattr(channel, 'name', channel)!r} does "
                        f"not reach group members {missing}",
                    )
        counts = {len(chs) for chs in groups.values()}
        if len(counts) != 1:
            report.add(
                Severity.ERROR, "non-uniform-channels",
                f"topology.{dim.value}",
                f"groups expose different channel counts: {sorted(counts)}",
            )

    if product != fabric.num_npus:
        report.add(
            Severity.ERROR, "dim-product-mismatch", "topology.shape",
            f"logical group sizes multiply to {product} but the fabric has "
            f"{fabric.num_npus} NPUs",
        )
    return report.findings


def lint_topology(
    kind: TopologyKind,
    shape_dims: tuple[int, ...],
    config: SimulationConfig,
    expected_npus: Optional[int] = None,
    source: str = "",
) -> list[Finding]:
    """Shape/kind consistency, then full structural lint of the built fabric."""
    from repro.topology.logical import build_alltoall_topology, build_torus_topology

    report = LintReport(source=source)
    if kind is TopologyKind.TORUS and len(shape_dims) != 3:
        report.add(
            Severity.ERROR, "shape-arity", "topology.shape",
            f"Torus shapes are MxNxK (3 dims), got {'x'.join(map(str, shape_dims))}",
        )
        return report.findings
    if kind is TopologyKind.ALLTOALL and len(shape_dims) != 2:
        report.add(
            Severity.ERROR, "shape-arity", "topology.shape",
            f"AllToAll shapes are MxN (2 dims), got {'x'.join(map(str, shape_dims))}",
        )
        return report.findings

    product = 1
    for d in shape_dims:
        product *= d
    if expected_npus is not None and product != expected_npus:
        report.add(
            Severity.ERROR, "dim-product-mismatch", "topology.shape",
            f"shape {'x'.join(map(str, shape_dims))} yields {product} NPUs "
            f"but the run declares expected_npus={expected_npus}",
        )

    network = config.network
    if network is None:
        report.add(
            Severity.ERROR, "missing-network", "network",
            "run spec builds a topology but the config carries no network section",
        )
        return report.findings
    try:
        if kind is TopologyKind.TORUS:
            topology = build_torus_topology(
                TorusShape(*shape_dims), network, config.system)
        else:
            topology = build_alltoall_topology(
                AllToAllShape(*shape_dims), network, config.system)
    except ReproError as exc:
        report.add(Severity.ERROR, "topology-error", "topology.shape", str(exc))
        return report.findings
    report.extend(lint_fabric_structure(topology, source=source))
    return report.findings


# -- fault lint -----------------------------------------------------------------


def lint_faults(data: dict, num_links: Optional[int] = None,
                source: str = "") -> list[Finding]:
    """Fault-injection parameters (see :mod:`repro.network.faults`)."""
    report = LintReport(source=source)
    _check_unknown_keys(report, data, FAULT_KEYS, "faults")
    factor = data.get("bandwidth_factor")
    if factor is not None and isinstance(factor, (int, float)):
        if not 0 < factor <= 1:
            report.add(
                Severity.ERROR, "fault-factor-out-of-range",
                "faults.bandwidth_factor",
                f"bandwidth degradation factor must be in (0, 1], got "
                f"{factor}; 1.0 means no degradation, values above it would "
                f"*upgrade* the link",
            )
    extra = data.get("extra_latency_cycles")
    if extra is not None and isinstance(extra, (int, float)) and extra < 0:
        report.add(
            Severity.ERROR, "fault-factor-out-of-range",
            "faults.extra_latency_cycles",
            f"extra latency must be >= 0, got {extra}",
        )
    count = data.get("count")
    if count is not None and isinstance(count, int):
        if count < 0:
            report.add(Severity.ERROR, "fault-factor-out-of-range",
                       "faults.count", f"fault count must be >= 0, got {count}")
        elif num_links is not None and count > num_links:
            report.add(
                Severity.ERROR, "fault-count-exceeds-links", "faults.count",
                f"cannot degrade {count} links of a fabric with {num_links}",
            )
    kind = data.get("kind")
    if kind is not None and kind not in ("local", "package"):
        report.add(Severity.ERROR, "unknown-parameter", "faults.kind",
                   f"link kind must be 'local' or 'package', got {kind!r}")
    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        report.add(Severity.ERROR, "fault-factor-out-of-range", "faults.seed",
                   f"fault seed must be an integer, got {seed!r}")
    return report.findings


def lint_fault_schedule(data: Any, source: str = "") -> list[Finding]:
    """Dynamic fault-schedule lint (see :mod:`repro.network.fault_schedule`).

    Validates the document shape, every event's keys/action/operands, and
    cross-event consistency (a ``link_up`` for a link that was never taken
    down is a warning — usually a typo in the endpoint pair).
    """
    from repro.network.fault_schedule import (
        EVENT_KEYS,
        SCHEDULE_KEYS,
        FaultEvent,
        FaultSchedule,
    )

    report = LintReport(source=source)
    if not isinstance(data, dict):
        report.add(Severity.ERROR, "malformed-spec", "fault_schedule",
                   f"fault schedule must be an object, got {type(data).__name__}")
        return report.findings
    _check_unknown_keys(report, data, SCHEDULE_KEYS, "fault_schedule")
    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        report.add(Severity.ERROR, "fault-factor-out-of-range",
                   "fault_schedule.seed",
                   f"fault-schedule seed must be an integer, got {seed!r}")
    events = data.get("events", [])
    if not isinstance(events, list):
        report.add(Severity.ERROR, "malformed-spec", "fault_schedule.events",
                   "events must be a list")
        return report.findings

    downed: set[tuple[int, int]] = set()
    for i, entry in enumerate(sorted(
            (e for e in events if isinstance(e, dict)),
            key=lambda e: e.get("time", 0)
            if isinstance(e.get("time", 0), (int, float)) else 0)):
        prefix = f"fault_schedule.events[{i}]"
        _check_unknown_keys(report, entry, EVENT_KEYS, prefix)
        try:
            event = FaultEvent.from_dict(
                {k: v for k, v in entry.items() if k in EVENT_KEYS})
        except ConfigError as exc:
            report.add(Severity.ERROR, "fault-event-invalid", prefix, str(exc))
            continue
        if event.action.value == "link_down":
            downed.add(event.link)
        elif event.action.value == "link_up":
            if event.link not in downed:
                report.add(
                    Severity.WARNING, "fault-link-up-without-down", prefix,
                    f"link_up for {event.link[0]}->{event.link[1]} without a "
                    f"preceding link_down (endpoint-pair typo?)",
                )
            else:
                downed.discard(event.link)
    for entry in events:
        if not isinstance(entry, dict):
            report.add(Severity.ERROR, "fault-event-invalid",
                       "fault_schedule.events",
                       f"events must be objects, got {type(entry).__name__}")
    if report.ok(strict=False):
        # Shape is valid; let the constructor catch anything else.
        try:
            FaultSchedule.from_dict(data)
        except ConfigError as exc:
            report.add(Severity.ERROR, "fault-event-invalid", "fault_schedule",
                       str(exc))
    return report.findings


def lint_supervision(data: Any, source: str = "") -> list[Finding]:
    """Lint a run spec's ``supervision`` section (docs/SUPERVISION.md).

    Per-field range rules and the ``on_poison`` enum fire first with
    parameter-anchored findings; a clean section is then constructed via
    :class:`repro.parallel.supervisor.SupervisionPolicy` so every cross-field
    ConfigError the runtime would raise surfaces here instead.
    """
    report = LintReport(source=source)
    if not isinstance(data, dict):
        report.add(Severity.ERROR, "malformed-spec", "supervision",
                   f"supervision section must be an object, got "
                   f"{type(data).__name__}")
        return report.findings
    _check_unknown_keys(report, data, SUPERVISION_KEYS, "supervision")
    _check_rules(report, data, _SUPERVISION_RULES, "supervision")
    on_poison = data.get("on_poison")
    if on_poison is not None and on_poison not in ("quarantine", "fail"):
        report.add(Severity.ERROR, "out-of-range", "supervision.on_poison",
                   f"must be 'quarantine' or 'fail', got {on_poison!r}")
    if report.ok(strict=False):
        from repro.parallel.supervisor import SupervisionPolicy

        try:
            SupervisionPolicy(
                **{k: v for k, v in data.items() if k in SUPERVISION_KEYS})
        except (ConfigError, TypeError) as exc:
            report.add(Severity.ERROR, "supervision-invalid", "supervision",
                       str(exc))
    return report.findings


# -- search-space specs ---------------------------------------------------------

#: Axes whose values are plain integers >= 1 (rings, switches, chunks).
_INT_AXES = ("chunks", "local_rings", "horizontal_rings", "vertical_rings",
             "global_switches")


def lint_search_space(data: Any, source: str = "") -> list[Finding]:
    """Lint a search-space spec for `astra-repro search` (docs/SEARCH.md).

    Raw-level checks fire first (unknown keys, empty axes, out-of-range
    bounds) so a bad file yields parameter-anchored findings; a clean
    document is then constructed via
    :class:`repro.search.space.SearchSpace` to catch everything else
    (shape/NPU mismatches, infeasible constraints).
    """
    from repro.analytical.cost_models import CostTable
    from repro.search.space import (
        AXIS_NAMES,
        COLLECTIVE_NAMES,
        CONSTRAINT_KEYS,
        SPACE_KEYS,
        SearchSpace,
    )

    report = LintReport(source=source)
    if not isinstance(data, dict):
        report.add(Severity.ERROR, "malformed-spec", "",
                   f"search space must be a JSON object, got "
                   f"{type(data).__name__}")
        return report.findings
    _check_unknown_keys(report, data, SPACE_KEYS, "")

    num_npus = data.get("num_npus")
    if num_npus is None:
        report.add(Severity.ERROR, "missing-parameter", "num_npus",
                   "search space needs an integer num_npus")
    elif isinstance(num_npus, bool) or not isinstance(num_npus, int) \
            or num_npus < 2:
        report.add(Severity.ERROR, "out-of-range", "num_npus",
                   f"must be an integer >= 2, got {num_npus!r}")

    collective = data.get("collective")
    if collective is not None and collective not in COLLECTIVE_NAMES:
        report.add(Severity.ERROR, "unknown-parameter", "collective",
                   f"unknown collective {collective!r}; expected one of "
                   f"{', '.join(COLLECTIVE_NAMES)}")

    size = data.get("size_bytes")
    if size is not None and (isinstance(size, bool)
                             or not isinstance(size, (int, float))
                             or size <= 0):
        report.add(Severity.ERROR, "out-of-range", "size_bytes",
                   f"must be positive, got {size!r}")

    axes = data.get("axes")
    if axes is not None:
        if not isinstance(axes, dict):
            report.add(Severity.ERROR, "malformed-spec", "axes",
                       "axes must be an object mapping axis -> values")
        else:
            _check_unknown_keys(report, axes, set(AXIS_NAMES), "axes")
            for name, values in axes.items():
                if name not in AXIS_NAMES:
                    continue
                if not isinstance(values, list):
                    report.add(Severity.ERROR, "malformed-spec",
                               f"axes.{name}", "axis values must be a list")
                elif not values:
                    report.add(Severity.ERROR, "empty-axis", f"axes.{name}",
                               "axis has no values; drop it to use the "
                               "default range")
                elif name in _INT_AXES:
                    for v in values:
                        if isinstance(v, bool) or not isinstance(v, int) \
                                or v < 1:
                            report.add(Severity.ERROR, "out-of-range",
                                       f"axes.{name}",
                                       f"values must be integers >= 1, "
                                       f"got {v!r}")

    constraints = data.get("constraints")
    if constraints is not None:
        if not isinstance(constraints, dict):
            report.add(Severity.ERROR, "malformed-spec", "constraints",
                       "constraints must be an object")
        else:
            _check_unknown_keys(report, constraints, CONSTRAINT_KEYS,
                                "constraints")
            _check_rules(report, constraints, {
                "max_links_per_npu": ("must be >= 1", lambda v: v >= 1),
                "max_platform_dollars": ("must be positive", lambda v: v > 0),
            }, "constraints")

    cost = data.get("cost")
    if cost is not None:
        if not isinstance(cost, dict):
            report.add(Severity.ERROR, "malformed-spec", "cost",
                       "cost must be an object of CostTable fields")
        else:
            _check_unknown_keys(report, cost, CostTable.field_names(), "cost")
            _check_rules(report, cost, {
                name: ("must be >= 0", lambda v: v >= 0)
                for name in CostTable.field_names()
            }, "cost")

    if report.errors:
        return report.findings
    try:
        SearchSpace.from_dict(data, source=source)
    except ConfigError as exc:
        report.add(Severity.ERROR, "search-space-error", "", str(exc))
    return report.findings


# -- run specs and files --------------------------------------------------------


def lint_run_spec(data: Any, source: str = "") -> LintReport:
    """Lint one run-spec (or bare SimulationConfig) dictionary.

    A run spec bundles a ``config`` with the pieces a config alone cannot
    express: the topology shape the run will build, the NPU count the
    workload expects, and any fault-injection plan.
    """
    report = LintReport(source=source)
    if not isinstance(data, dict):
        report.add(Severity.ERROR, "malformed-spec", "",
                   f"expected a JSON object, got {type(data).__name__}")
        return report

    if set(data) <= {"seed", "events"} and "events" in data:
        # A bare fault-schedule document (the --fault-schedule format).
        report.extend(lint_fault_schedule(data, source=source))
        return report

    if "axes" in data or ("num_npus" in data and "config" not in data):
        # A search-space document (the `astra-repro search --space` format).
        report.extend(lint_search_space(data, source=source))
        return report

    if "op" in data and "size_mb" in data and "config" not in data:
        # A service payload (the `astra-repro serve` POST body format):
        # the same strict schema the daemon enforces at admission, so a
        # payload can be linted offline before it is ever submitted.
        from repro.service.schema import lint_payload

        report.extend(lint_payload(data, source=source))
        return report

    is_bare_config = "system" in data and "config" not in data
    if is_bare_config:
        config_data, spec = data, {}
    else:
        spec = data
        _check_unknown_keys(report, spec, RUN_SPEC_KEYS, "")
        config_data = spec.get("config")

    if config_data is not None:
        config, findings = lint_config_dict(config_data, source=source)
        report.extend(findings)
    else:
        from repro.config.presets import paper_simulation_config

        config = paper_simulation_config()

    topo_data = spec.get("topology")
    if topo_data is not None and config is not None:
        if not isinstance(topo_data, dict):
            report.add(Severity.ERROR, "malformed-spec", "topology",
                       "topology section must be an object with kind/shape")
        else:
            _check_unknown_keys(report, topo_data, TOPOLOGY_KEYS, "topology")
            try:
                kind = TopologyKind(topo_data.get("kind", "Torus"))
                dims = parse_shape(topo_data.get("shape", ""))
            except (ConfigError, ValueError) as exc:
                report.add(Severity.ERROR, "malformed-spec", "topology", str(exc))
            else:
                report.extend(lint_topology(
                    kind, dims, config,
                    expected_npus=spec.get("expected_npus"),
                    source=source,
                ))

    faults = spec.get("faults")
    if faults is not None:
        if not isinstance(faults, dict):
            report.add(Severity.ERROR, "malformed-spec", "faults",
                       "faults section must be an object")
        else:
            num_links = _count_links(spec, config)
            report.extend(lint_faults(faults, num_links=num_links, source=source))

    schedule = spec.get("fault_schedule")
    if schedule is not None:
        report.extend(lint_fault_schedule(schedule, source=source))

    supervision = spec.get("supervision")
    if supervision is not None:
        report.extend(lint_supervision(supervision, source=source))
    return report


def _count_links(spec: dict, config: Optional[SimulationConfig]) -> Optional[int]:
    """Total fabric links when the spec describes a buildable topology."""
    topo_data = spec.get("topology")
    if config is None or config.network is None or not isinstance(topo_data, dict):
        return None
    from repro.topology.logical import build_alltoall_topology, build_torus_topology

    try:
        kind = TopologyKind(topo_data.get("kind", "Torus"))
        dims = parse_shape(topo_data.get("shape", ""))
        if kind is TopologyKind.TORUS:
            topology = build_torus_topology(TorusShape(*dims), config.network,
                                            config.system)
        else:
            topology = build_alltoall_topology(AllToAllShape(*dims),
                                               config.network, config.system)
    except (ReproError, ValueError, TypeError):
        return None
    return topology.fabric.total_links()


def lint_spec_file(path: str) -> LintReport:
    """Lint one JSON config / run-spec file from disk."""
    report = LintReport(source=str(path))
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        report.add(Severity.ERROR, "unreadable-file", "", str(exc))
        return report
    except json.JSONDecodeError as exc:
        report.add(Severity.ERROR, "invalid-json", "", str(exc))
        return report
    return lint_run_spec(data, source=str(path))


# -- platforms and presets ------------------------------------------------------


def lint_platform(platform, source: str = "") -> LintReport:
    """Lint a harness :class:`PlatformSpec`: its config and its built topology."""
    report = LintReport(source=source or platform.name)
    report.extend(lint_config(platform.config, source=report.source))
    try:
        topology = platform.topology_builder(platform.config.system)
    except ReproError as exc:
        report.add(Severity.ERROR, "topology-error", "topology", str(exc))
        return report
    report.extend(lint_fabric_structure(topology, source=report.source))
    return report


def lint_presets() -> list[LintReport]:
    """Lint every shipped preset platform (the CI gate)."""
    from repro.config.parameters import (
        AllToAllShape as A2A,
        CollectiveAlgorithm,
        TorusShape as Torus,
    )
    from repro.harness.runners import alltoall_platform, torus_platform

    platforms = [
        torus_platform(Torus(2, 4, 4)),
        torus_platform(Torus(4, 4, 4), algorithm=CollectiveAlgorithm.ENHANCED),
        torus_platform(Torus(1, 8, 1), symmetric=True),
        alltoall_platform(A2A(4, 16)),
        alltoall_platform(A2A(2, 4), algorithm=CollectiveAlgorithm.ENHANCED,
                          symmetric=True),
    ]
    return [lint_platform(p) for p in platforms]
