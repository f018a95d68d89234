"""Static lint pass over fully-assembled simulation runs.

Checks everything that can be checked *before* the first event fires:

* every field against its declaration (:mod:`repro.config.fields`): the
  raw document is walked against the same field tables the config
  dataclasses check at construction, so a bad file yields one finding
  per bad value with its parameter path instead of one exception,
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

import json
import math
from typing import Any, Optional

from repro.config.fields import FieldError, field_errors, parse_shape, unknown_keys
from repro.config.io import config_from_dict
from repro.config.parameters import (
    AllToAllShape,
    LinkConfig,
    SimulationConfig,
    TopologyKind,
    TorusShape,
    check_arity,
)
from repro.errors import ConfigError, ReproError
from repro.sanitize.findings import Finding, LintReport, Severity

#: Top-level keys a run-spec JSON document may carry.
RUN_SPEC_KEYS = {"config", "topology", "expected_npus", "faults",
                 "fault_schedule", "supervision"}

#: Keys of the ``topology`` section of a run spec.
TOPOLOGY_KEYS = {"kind", "shape"}

#: Keys of the ``faults`` section of a run spec.
FAULT_KEYS = {"count", "bandwidth_factor", "extra_latency_cycles", "kind", "seed"}


def _add_errors(report: LintReport, errors) -> None:
    """Record ``(path, code, message)`` field errors as ERROR findings."""
    for path, code, message in errors:
        report.add(Severity.ERROR, code, path, message)


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
    """Lint a raw SimulationConfig dict against its field tables, then
    construct it and run the cross-parameter checks."""
    report = LintReport(source=source)
    _add_errors(report, field_errors(SimulationConfig, data))
    if report.errors:
        return None, report.findings
    config = config_from_dict(data)
    report.extend(lint_config(config, source=source))
    return config, report.findings


# -- topology lint --------------------------------------------------------------


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
    report = LintReport(source=source)
    try:
        check_arity(kind, shape_dims)
    except FieldError as exc:
        report.add(Severity.ERROR, "shape-arity", "topology.shape", str(exc))
        return report.findings

    if expected_npus is not None and math.prod(shape_dims) != expected_npus:
        report.add(
            Severity.ERROR, "dim-product-mismatch", "topology.shape",
            f"shape {'x'.join(map(str, shape_dims))} yields "
            f"{math.prod(shape_dims)} NPUs "
            f"but the run declares expected_npus={expected_npus}",
        )

    if config.network is None:
        report.add(
            Severity.ERROR, "missing-network", "network",
            "run spec builds a topology but the config carries no network section",
        )
        return report.findings
    try:
        topology = _build_topology(kind, shape_dims, config)
    except ReproError as exc:
        report.add(Severity.ERROR, "topology-error", "topology.shape", str(exc))
        return report.findings
    report.extend(lint_fabric_structure(topology, source=source))
    return report.findings


def _build_topology(kind: TopologyKind, dims: tuple[int, ...],
                    config: SimulationConfig):
    """The logical topology a run spec describes, on its own network."""
    from repro.topology.logical import build_alltoall_topology, build_torus_topology

    check_arity(kind, dims)
    if kind is TopologyKind.TORUS:
        return build_torus_topology(TorusShape(*dims), config.network, config.system)
    return build_alltoall_topology(AllToAllShape(*dims), config.network, config.system)


# -- fault lint -----------------------------------------------------------------


def lint_faults(data: dict, num_links: Optional[int] = None,
                source: str = "") -> list[Finding]:
    """Fault-injection parameters (see :mod:`repro.network.faults`)."""
    report = LintReport(source=source)
    _add_errors(report, unknown_keys(data, FAULT_KEYS, "faults"))
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
    _add_errors(report, unknown_keys(data, SCHEDULE_KEYS, "fault_schedule"))
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
        _add_errors(report, unknown_keys(entry, EVENT_KEYS, prefix))
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
    """Lint a run spec's ``supervision`` section (docs/SUPERVISION.md)
    against :class:`repro.parallel.supervisor.SupervisionPolicy`'s field
    table — the rules the policy checks at construction."""
    from repro.parallel.supervisor import SupervisionPolicy

    report = LintReport(source=source)
    if not isinstance(data, dict):
        report.add(Severity.ERROR, "malformed-spec", "supervision",
                   f"supervision section must be an object, got "
                   f"{type(data).__name__}")
        return report.findings
    _add_errors(report, field_errors(SupervisionPolicy, data, "supervision"))
    return report.findings


# -- search-space specs ---------------------------------------------------------


def lint_search_space(data: Any, source: str = "") -> list[Finding]:
    """Lint a search-space spec for `astra-repro search` (docs/SEARCH.md).

    The document is checked against its field tables (unknown keys,
    types, empty axes, out-of-range values, each axis against the field
    it sweeps) with parameter-anchored findings; a clean document is
    then constructed via :class:`repro.search.space.SearchSpace` to catch
    the cross-field rules (shape/NPU mismatches, a topology without a
    shape).
    """
    from repro.search.space import SearchSpace, SpaceDocument

    report = LintReport(source=source)
    if not isinstance(data, dict):
        report.add(Severity.ERROR, "malformed-spec", "",
                   f"search space must be a JSON object, got "
                   f"{type(data).__name__}")
        return report.findings
    _add_errors(report, field_errors(SpaceDocument, data))
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
        _add_errors(report, unknown_keys(spec, RUN_SPEC_KEYS))
        config_data = spec.get("config")

    if isinstance(config_data, dict):
        config, findings = lint_config_dict(config_data, source=source)
        report.extend(findings)
    elif config_data is not None:
        config = None
        report.add(Severity.ERROR, "malformed-spec", "config",
                   f"config section must be an object, got "
                   f"{type(config_data).__name__}")
    else:
        from repro.config.presets import paper_simulation_config

        config = paper_simulation_config()

    topo_data = spec.get("topology")
    topology = None
    if topo_data is not None and config is not None:
        if not isinstance(topo_data, dict):
            report.add(Severity.ERROR, "malformed-spec", "topology",
                       "topology section must be an object with kind/shape")
        else:
            _add_errors(report, unknown_keys(topo_data, TOPOLOGY_KEYS, "topology"))
            try:
                kind = TopologyKind(topo_data.get("kind", "Torus"))
                dims = parse_shape(topo_data.get("shape", ""))
            except (ConfigError, ValueError) as exc:
                report.add(Severity.ERROR, "malformed-spec", "topology", str(exc))
            else:
                topology = (kind, dims)
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
            num_links = _count_links(topology, config)
            report.extend(lint_faults(faults, num_links=num_links, source=source))

    schedule = spec.get("fault_schedule")
    if schedule is not None:
        report.extend(lint_fault_schedule(schedule, source=source))

    supervision = spec.get("supervision")
    if supervision is not None:
        report.extend(lint_supervision(supervision, source=source))
    return report


def _count_links(topology: Optional[tuple], config: Optional[SimulationConfig]
                 ) -> Optional[int]:
    """Total fabric links when the spec describes a buildable topology."""
    if topology is None or config.network is None:
        return None
    try:
        return _build_topology(*topology, config).fabric.total_links()
    except ReproError:
        return None


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
