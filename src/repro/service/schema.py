"""The validated request schema of the simulation service.

Every request the ``astra-repro serve`` daemon accepts is a
:class:`SimulationPayload`: a strict, typed contract over the Table III
design-point parameters, validated entirely *before* any engine state is
touched, in two passes:

1. **Fields** — the document is checked against the payload's field
   table (:mod:`repro.config.fields`; the ring counts, algorithm, policy,
   chunks and compute scale reuse the config dataclasses' rules).
   Unknown keys are rejected with a typo hint, never ignored: a client
   that misspells ``algorithm`` must not silently simulate the default.
2. **Cross-parameter** — the payload is built into the platform the CLI
   builds (:func:`~repro.harness.runners.platform_for`) and routed
   through :func:`repro.sanitize.static_lint.lint_platform`, so an
   inconsistent platform is rejected with the findings ``astra-repro
   lint`` reports.

A rejected payload raises :class:`PayloadError` carrying every field
error — the daemon serializes it straight into the 400 response body.
``astra-repro lint payload.json`` routes documents with ``op`` +
``size_mb`` here.  :meth:`SimulationPayload.canonical` round-trips
through :func:`parse_payload`, and :meth:`SimulationPayload.content_key`
is the RunCache content key the daemon's dedupe, journal and cache share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.collectives.types import COLLECTIVE_OPS, CollectiveOp
from repro.config import fields
from repro.config.fields import FieldError, Rule, choice, declare, integer, like, number
from repro.config.parameters import (
    CollectiveAlgorithm,
    ComputeConfig,
    SchedulingPolicy,
    SystemConfig,
    TopologyKind,
    check_arity,
)
from repro.config.units import MB
from repro.errors import ConfigError, ReproError
from repro.sanitize.findings import Finding, Severity

#: Payload contract version; requests declaring another version are
#: rejected up front instead of being misread.
PAYLOAD_VERSION = 1

#: Payload size ceiling: the service refuses to queue a single point
#: larger than this (a 32 MB collective is the biggest paper sweep size;
#: 1 GB is already an hours-long simulation).
MAX_SIZE_MB = 1024.0

#: Priorities are a small fixed band so clients cannot starve each other
#: with unbounded values.
MAX_PRIORITY = 9

#: The shape a payload gets when it names a topology but no shape.
DEFAULT_SHAPES = {TopologyKind.TORUS: (2, 4, 4), TopologyKind.ALLTOALL: (4, 16)}


class PayloadError(ConfigError):
    """A rejected simulation payload, with structured per-field errors.

    ``errors`` is a list of ``{"field", "code", "message"}`` dicts — the
    daemon returns it verbatim in the 400 response body.
    """

    def __init__(self, errors: list[dict[str, str]]):
        self.errors = list(errors)
        parts = [f"{e['field'] or 'payload'}: {e['message']}"
                 for e in self.errors[:3]]
        if len(self.errors) > 3:
            parts.append(f"... and {len(self.errors) - 3} more")
        super().__init__("invalid simulation payload: " + "; ".join(parts))

    def to_dict(self) -> dict[str, Any]:
        return {"error": "invalid-payload", "errors": self.errors}


@dataclass(frozen=True)
class SimulationPayload:
    """One validated simulation request (a pure, cacheable design point).

    Defaults mirror the ``astra-repro collective`` CLI defaults, so the
    minimal payload is just ``{"op": ..., "size_mb": ...}``; the shape
    defaults per topology (:data:`DEFAULT_SHAPES`).
    """

    op: CollectiveOp = choice(COLLECTIVE_OPS)
    size_mb: float = number(gt=0, le=MAX_SIZE_MB)
    topology: TopologyKind = like(SystemConfig, "topology", TopologyKind.TORUS)
    shape: Optional[tuple[int, ...]] = declare(Rule("shape"), None)
    algorithm: CollectiveAlgorithm = like(SystemConfig, "algorithm",
                                          CollectiveAlgorithm.BASELINE)
    scheduling_policy: SchedulingPolicy = like(SystemConfig, "scheduling_policy",
                                               SchedulingPolicy.LIFO)
    symmetric: bool = declare(Rule("bool"), False)
    local_rings: int = like(SystemConfig, "local_rings", 2)
    horizontal_rings: int = like(SystemConfig, "horizontal_rings", 1)
    vertical_rings: int = like(SystemConfig, "vertical_rings", 1)
    global_switches: int = like(SystemConfig, "global_switches", 2)
    preferred_set_splits: int = like(SystemConfig, "preferred_set_splits", 16)
    compute_scale: float = like(ComputeConfig, "compute_scale", 1.0)
    #: Scheduling priority in the service queue (higher first, 0-9).
    #: Deliberately *not* part of the content key: priority affects when
    #: a point runs, never what it computes.
    priority: int = integer(0, ge=0, le=MAX_PRIORITY)

    def __post_init__(self) -> None:
        fields.check(self)
        if self.shape is None:
            object.__setattr__(self, "shape", DEFAULT_SHAPES[self.topology])
        check_arity(self.topology, self.shape)

    @property
    def size_bytes(self) -> float:
        return self.size_mb * MB

    def canonical(self) -> dict[str, Any]:
        """The canonical JSON form; round-trips through
        :func:`parse_payload` and is what the daemon journals."""
        return {"schema": PAYLOAD_VERSION, **fields.to_raw(self)}

    def platform_spec(self):
        """The :class:`~repro.harness.runners.PlatformSpec` this payload
        describes — the exact spec the CLI would build for the same
        flags."""
        from repro.harness.runners import platform_for

        return platform_for(
            self.topology, self.shape,
            algorithm=self.algorithm,
            scheduling_policy=self.scheduling_policy,
            symmetric=self.symmetric,
            local_rings=self.local_rings,
            horizontal_rings=self.horizontal_rings,
            vertical_rings=self.vertical_rings,
            global_switches=self.global_switches,
            preferred_set_splits=self.preferred_set_splits,
            compute_scale=self.compute_scale,
        )

    def content_key(self) -> str:
        """The RunCache content key of this point.

        Payloads are pure by construction (no faults, no watchdog, no
        transport), so the key always exists; two payloads share it iff
        a simulation cannot tell them apart.  The daemon coalesces
        identical in-flight requests on it, the journal records outcomes
        under it, and the cache serves repeats from it.
        """
        from repro.parallel.cache import collective_cache_key

        key = collective_cache_key(self.platform_spec(), self.op,
                                   self.size_bytes)
        if key is None:  # pragma: no cover - payloads are pure by schema
            raise ReproError("validated payload was not cacheable")
        return key


def build_payload_platform(canonical: dict[str, Any]):
    """Module-level platform builder for supervised RunPoints.

    Picklable (unlike the CLI's argparse closure), so service jobs run
    crash-isolated in worker slots.  Skips the lint pass: the canonical
    dict comes from an already-validated payload.
    """
    return parse_payload(canonical, lint=False).platform_spec()


# -- validation --------------------------------------------------------------------


def parse_payload(data: Any, lint: bool = True) -> SimulationPayload:
    """Validate ``data`` into a :class:`SimulationPayload` or raise
    :class:`PayloadError` with every field error found (not just the
    first).  A ``null`` value means the field's default.  ``lint=False``
    skips the cross-parameter static-lint pass (used when re-parsing the
    daemon's own journaled canonical forms).
    """
    if not isinstance(data, dict):
        raise PayloadError([{
            "field": "", "code": "malformed-payload",
            "message": f"expected a JSON object, got {type(data).__name__}",
        }])
    data = {key: value for key, value in data.items() if value is not None}
    version = data.pop("schema", PAYLOAD_VERSION)
    errors = [_error(*e) for e in fields.field_errors(SimulationPayload, data)]
    if version != PAYLOAD_VERSION:
        errors.append(_error(
            "schema", "unsupported-schema",
            f"payload schema {version!r} is not supported; this service "
            f"speaks schema {PAYLOAD_VERSION}"))
    if errors:
        raise PayloadError(errors)
    try:
        payload = fields.build(SimulationPayload, data)
    except FieldError as exc:
        raise PayloadError([_error("shape", exc.code, str(exc))]) from None

    if lint:
        errors = _lint_platform(payload)
        if errors:
            raise PayloadError(errors)
    return payload


def lint_payload(data: Any, source: str = "") -> list[Finding]:
    """Static-lint entry: payload errors as :class:`Finding` records.

    Routed from :func:`repro.sanitize.static_lint.lint_run_spec` so
    ``astra-repro lint payload.json`` checks service payload documents
    with the same tooling as run specs.
    """
    try:
        parse_payload(data)
    except PayloadError as exc:
        return [Finding(Severity.ERROR, e["code"], e["field"], e["message"],
                        source=source)
                for e in exc.errors]
    return []


def _error(field: str, code: str, message: str) -> dict[str, str]:
    return {"field": field, "code": code, "message": message}


def _lint_platform(payload: SimulationPayload) -> list[dict[str, str]]:
    """Cross-parameter pass: build the spec, route through static lint."""
    from repro.sanitize.static_lint import lint_platform

    try:
        spec = payload.platform_spec()
    except ReproError as exc:
        return [_error("", "platform-construction", str(exc))]
    report = lint_platform(spec, source="payload")
    return [_error(f.param, f.code, f.message)
            for f in report.findings if f.severity is Severity.ERROR]
