"""Static lint pass over simulation inputs, before the first event fires.

Two kinds of input are checked:

* the JSON documents a command reads, each against the same field tables
  (:mod:`repro.config.fields`) and constructor its loader uses, so
  ``astra-repro lint`` reports exactly what the command would reject,
  one finding per bad value with its parameter path:
  :func:`lint_fault_schedule` (``--fault-schedule``),
  :func:`lint_search_space` (``search --space``) and
  :func:`repro.service.schema.lint_payload` (the ``serve`` POST body).
  :func:`lint_run_spec` routes a document to one of them and
  :func:`lint_spec_file` reads one from disk;
* built platforms: :func:`lint_config` checks cross-parameter
  consistency (flit width divides packet size, message quantum fits a
  packet, bandwidth hierarchy).  :func:`lint_platform` runs it on a
  harness :class:`PlatformSpec` (service admission does, for every
  payload) and :func:`lint_presets` on everything shipped in
  :mod:`repro.config.presets`.  Neither builds a fabric: a platform's
  topology is checked where the spec is made.
"""

from __future__ import annotations

import json
from typing import Any

from repro.config.fields import build, field_errors
from repro.config.parameters import LinkConfig, SimulationConfig
from repro.errors import ConfigError
from repro.sanitize.findings import Finding, LintReport, Severity


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


# -- fault lint -----------------------------------------------------------------


def lint_fault_schedule(data: Any, source: str = "") -> list[Finding]:
    """Lint a fault-schedule document (docs/FAULTS.md).

    The document is checked against its field tables
    (:class:`~repro.network.fault_schedule.ScheduleDocument` and
    :class:`~repro.network.fault_schedule.FaultEvent`), then each event
    whose fields pass is constructed to catch the cross-field rules (a link action without
    a ``link``, a node action without a ``node``, a link from an NPU to
    itself).  A ``link_up`` for a link that was never taken down is a
    warning — usually a typo in the endpoint pair.
    """
    from repro.network.fault_schedule import FaultAction, FaultEvent, ScheduleDocument

    report = LintReport(source=source)
    _add_errors(report, field_errors(ScheduleDocument, data, "fault_schedule"))
    entries = data.get("events") if isinstance(data, dict) else None
    events = []
    for i, entry in enumerate(entries if isinstance(entries, list) else []):
        where = f"fault_schedule.events[{i}]"
        if field_errors(FaultEvent, entry, where):
            continue  # reported above
        try:
            events.append((build(FaultEvent, entry), where))
        except ConfigError as exc:
            report.add(Severity.ERROR, "fault-event-invalid", where, str(exc))

    # Events are walked in time order (a link_up must follow its
    # link_down) but reported at their index in the document.
    downed: set[tuple[int, int]] = set()
    for event, where in sorted(events, key=lambda item: item[0].time):
        if event.action is FaultAction.LINK_DOWN:
            downed.add(event.link)
        elif event.action is FaultAction.LINK_UP:
            if event.link not in downed:
                report.add(
                    Severity.WARNING, "fault-link-up-without-down", where,
                    f"link_up for {event.link[0]}->{event.link[1]} without a "
                    f"preceding link_down (endpoint-pair typo?)",
                )
            downed.discard(event.link)
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


# -- documents and files --------------------------------------------------------


def lint_run_spec(data: Any, source: str = "") -> LintReport:
    """Lint one spec: a JSON document a command reads, routed by its
    keys — a fault schedule (``events``), a search space (``axes`` or
    ``num_npus``) or a service payload (``op``).  Anything else is one
    ``malformed-spec`` error."""
    report = LintReport(source=source)
    if isinstance(data, dict) and "events" in data:
        report.extend(lint_fault_schedule(data, source=source))
    elif isinstance(data, dict) and ("axes" in data or "num_npus" in data):
        report.extend(lint_search_space(data, source=source))
    elif isinstance(data, dict) and "op" in data:
        # The same strict schema the daemon enforces at admission, so a
        # payload can be linted offline before it is ever submitted.
        from repro.service.schema import lint_payload

        report.extend(lint_payload(data, source=source))
    else:
        got = f"keys {sorted(data)}" if isinstance(data, dict) else type(data).__name__
        report.add(Severity.ERROR, "malformed-spec", "",
                   f"expected a fault schedule (events), a search space (axes, "
                   f"num_npus) or a service payload (op), got {got}")
    return report


def lint_spec_file(path: str) -> LintReport:
    """Lint one JSON document from disk (see :func:`lint_run_spec`)."""
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
    """Lint a harness :class:`PlatformSpec`'s config.  Its topology needs
    no lint: :func:`~repro.topology.logical.topology_builder` refuses a
    bad shape when the spec is made, and the fabric's blocks make every
    group uniform and every channel span its group by construction."""
    report = LintReport(source=source or platform.name)
    report.extend(lint_config(platform.config, source=report.source))
    return report


def lint_presets() -> list[LintReport]:
    """Lint the config of every shipped preset platform (the CI gate)."""
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
