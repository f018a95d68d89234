"""The validated request schema of the simulation service.

Every request the ``astra-repro serve`` daemon accepts is a
:class:`SimulationPayload`: a strict, typed contract over the Table III
design-point parameters.  Validation happens entirely *before* any
engine state is touched, in two passes:

1. **Structural** — the JSON document must be an object with known keys
   only (unknown keys are rejected with a typo hint, never ignored:
   a client that misspells ``algorithm`` must not silently simulate the
   default), every field type- and enum-checked with the allowed values
   listed in the error, every numeric field range-checked.
2. **Cross-parameter** — the payload is assembled into the same
   :class:`~repro.harness.runners.PlatformSpec` the CLI builds and
   routed through the existing static lint
   (:func:`repro.sanitize.static_lint.lint_platform`), so a payload that
   passes field checks but describes an inconsistent platform (shape /
   topology mismatch, bandwidth nonsense) is rejected with the same
   parameter-anchored findings ``astra-repro lint`` reports.

A rejected payload raises :class:`PayloadError` carrying the full list
of structured field errors — the daemon serializes it straight into the
400 response body.  ``astra-repro lint payload.json`` works on payload
documents too: :func:`repro.sanitize.static_lint.lint_run_spec` routes
documents with ``op`` + ``size_mb`` here.

Validated payloads are canonical: :meth:`SimulationPayload.canonical`
round-trips through :func:`parse_payload`, and
:meth:`SimulationPayload.content_key` is the RunCache content key — the
daemon's dedupe, journal and cache all share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.collectives.types import CollectiveOp
from repro.config.parameters import (
    AllToAllShape,
    CollectiveAlgorithm,
    SchedulingPolicy,
    TopologyKind,
    TorusShape,
)
from repro.config.units import MB
from repro.errors import ConfigError, ReproError
from repro.sanitize.findings import Finding, Severity

#: Payload contract version; requests declaring another version are
#: rejected up front instead of being misread.
PAYLOAD_VERSION = 1

#: The collective-op tokens clients may request (CLI-compatible names).
OP_NAMES = {
    "allreduce": CollectiveOp.ALL_REDUCE,
    "allgather": CollectiveOp.ALL_GATHER,
    "reducescatter": CollectiveOp.REDUCE_SCATTER,
    "alltoall": CollectiveOp.ALL_TO_ALL,
}

#: Every key a payload document may carry.  Anything else is an error.
PAYLOAD_KEYS = {
    "schema", "op", "size_mb", "topology", "shape", "algorithm",
    "scheduling_policy", "symmetric", "local_rings", "horizontal_rings",
    "vertical_rings", "global_switches", "preferred_set_splits",
    "compute_scale", "priority",
}

#: Payload size ceiling: the service refuses to queue a single point
#: larger than this (a 32 MB collective is the biggest paper sweep size;
#: 1 GB is already an hours-long simulation).
MAX_SIZE_MB = 1024.0

#: Priorities are a small fixed band so clients cannot starve each other
#: with unbounded values.
MAX_PRIORITY = 9


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
    minimal payload is just ``{"op": ..., "size_mb": ...}``.
    """

    op: CollectiveOp
    size_mb: float
    topology: TopologyKind = TopologyKind.TORUS
    shape: tuple[int, ...] = (2, 4, 4)
    algorithm: CollectiveAlgorithm = CollectiveAlgorithm.BASELINE
    scheduling_policy: SchedulingPolicy = SchedulingPolicy.LIFO
    symmetric: bool = False
    local_rings: int = 2
    horizontal_rings: int = 1
    vertical_rings: int = 1
    global_switches: int = 2
    preferred_set_splits: int = 16
    compute_scale: float = 1.0
    #: Scheduling priority in the service queue (higher first, 0-9).
    #: Deliberately *not* part of the content key: priority affects when
    #: a point runs, never what it computes.
    priority: int = 0

    @property
    def size_bytes(self) -> float:
        return self.size_mb * MB

    @property
    def op_name(self) -> str:
        return next(name for name, op in OP_NAMES.items() if op is self.op)

    def canonical(self) -> dict[str, Any]:
        """The canonical JSON form; round-trips through
        :func:`parse_payload` and is what the daemon journals."""
        return {
            "schema": PAYLOAD_VERSION,
            "op": self.op_name,
            "size_mb": float(self.size_mb),
            "topology": self.topology.value,
            "shape": list(self.shape),
            "algorithm": self.algorithm.value,
            "scheduling_policy": self.scheduling_policy.value,
            "symmetric": self.symmetric,
            "local_rings": self.local_rings,
            "horizontal_rings": self.horizontal_rings,
            "vertical_rings": self.vertical_rings,
            "global_switches": self.global_switches,
            "preferred_set_splits": self.preferred_set_splits,
            "compute_scale": self.compute_scale,
            "priority": self.priority,
        }

    def platform_spec(self):
        """The :class:`~repro.harness.runners.PlatformSpec` this payload
        describes — the exact spec the CLI would build for the same
        flags."""
        from repro.harness.runners import alltoall_platform, torus_platform

        if self.topology is TopologyKind.TORUS:
            return torus_platform(
                TorusShape(*self.shape),
                algorithm=self.algorithm,
                scheduling_policy=self.scheduling_policy,
                symmetric=self.symmetric,
                local_rings=self.local_rings,
                horizontal_rings=self.horizontal_rings,
                vertical_rings=self.vertical_rings,
                compute_scale=self.compute_scale,
                preferred_set_splits=self.preferred_set_splits,
            )
        return alltoall_platform(
            AllToAllShape(*self.shape),
            algorithm=self.algorithm,
            scheduling_policy=self.scheduling_policy,
            symmetric=self.symmetric,
            local_rings=self.local_rings,
            global_switches=self.global_switches,
            preferred_set_splits=self.preferred_set_splits,
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
    first).  ``lint=False`` skips the cross-parameter static-lint pass
    (used when re-parsing the daemon's own journaled canonical forms).
    """
    errors: list[dict[str, str]] = []

    def err(field: str, code: str, message: str) -> None:
        errors.append({"field": field, "code": code, "message": message})

    if not isinstance(data, dict):
        raise PayloadError([{
            "field": "", "code": "malformed-payload",
            "message": f"expected a JSON object, got {type(data).__name__}",
        }])

    for key in sorted(data):
        if key not in PAYLOAD_KEYS:
            hint = _closest(key)
            suffix = f" (did you mean {hint!r}?)" if hint else ""
            err(key, "unknown-parameter",
                f"unknown payload parameter{suffix}; allowed: "
                + ", ".join(sorted(PAYLOAD_KEYS)))

    version = data.get("schema", PAYLOAD_VERSION)
    if version != PAYLOAD_VERSION:
        err("schema", "unsupported-schema",
            f"payload schema {version!r} is not supported; this service "
            f"speaks schema {PAYLOAD_VERSION}")

    op = _parse_enum_token(data, "op", OP_NAMES, err, required=True)
    size_mb = _parse_number(data, "size_mb", err, required=True,
                            minimum_exclusive=0.0, maximum=MAX_SIZE_MB)
    topology = _parse_enum(data, "topology", TopologyKind, err,
                           default=TopologyKind.TORUS)
    algorithm = _parse_enum(data, "algorithm", CollectiveAlgorithm, err,
                            default=CollectiveAlgorithm.BASELINE)
    policy = _parse_enum(data, "scheduling_policy", SchedulingPolicy, err,
                         default=SchedulingPolicy.LIFO)
    symmetric = _parse_bool(data, "symmetric", err, default=False)
    ints = {
        name: _parse_int(data, name, err, default=default, minimum=1)
        for name, default in (("local_rings", 2), ("horizontal_rings", 1),
                              ("vertical_rings", 1), ("global_switches", 2),
                              ("preferred_set_splits", 16))
    }
    compute_scale = _parse_number(data, "compute_scale", err, default=1.0,
                                  minimum_exclusive=0.0)
    priority = _parse_int(data, "priority", err, default=0, minimum=0,
                          maximum=MAX_PRIORITY)
    shape = _parse_shape(data.get("shape"), topology, err)

    if errors:
        raise PayloadError(errors)

    payload = SimulationPayload(
        op=op, size_mb=float(size_mb), topology=topology, shape=shape,
        algorithm=algorithm, scheduling_policy=policy, symmetric=symmetric,
        compute_scale=float(compute_scale), priority=priority, **ints)

    if lint:
        _lint_platform(payload, err)
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


def _lint_platform(payload: SimulationPayload, err) -> None:
    """Cross-parameter pass: build the spec, route through static lint."""
    from repro.sanitize.static_lint import lint_platform

    try:
        spec = payload.platform_spec()
    except ReproError as exc:
        err("", "platform-construction", str(exc))
        return
    except (TypeError, ValueError) as exc:
        err("shape", "platform-construction", str(exc))
        return
    report = lint_platform(spec, source="payload")
    for finding in report.findings:
        if finding.severity is Severity.ERROR:
            err(finding.param, finding.code, finding.message)


def _closest(key: str) -> Optional[str]:
    candidates = [k for k in PAYLOAD_KEYS
                  if k.startswith(key[:4]) or k.endswith(key[-4:])]
    return min(candidates, key=len) if candidates else None


def _parse_enum_token(data, field, names, err, required=False, default=None):
    value = data.get(field)
    if value is None:
        if required:
            err(field, "missing-parameter",
                "required; one of " + ", ".join(sorted(names)))
        return default
    if isinstance(value, str) and value in names:
        return names[value]
    err(field, "bad-enum-value",
        f"got {value!r}; allowed values: " + ", ".join(sorted(names)))
    return default


def _parse_enum(data, field, enum_cls, err, default):
    value = data.get(field)
    if value is None:
        return default
    try:
        if isinstance(value, str):
            return enum_cls(value)
    except ValueError:
        pass
    allowed = ", ".join(member.value for member in enum_cls)
    err(field, "bad-enum-value", f"got {value!r}; allowed values: {allowed}")
    return default


def _parse_bool(data, field, err, default):
    value = data.get(field)
    if value is None:
        return default
    if isinstance(value, bool):
        return value
    err(field, "bad-type", f"must be true or false, got {value!r}")
    return default


def _parse_number(data, field, err, required=False, default=None,
                  minimum_exclusive=None, maximum=None):
    value = data.get(field)
    if value is None:
        if required:
            err(field, "missing-parameter", "required; a number")
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        err(field, "bad-type", f"must be a number, got {value!r}")
        return default
    if minimum_exclusive is not None and value <= minimum_exclusive:
        err(field, "out-of-range",
            f"must be > {minimum_exclusive:g}, got {value!r}")
        return default
    if maximum is not None and value > maximum:
        err(field, "out-of-range", f"must be <= {maximum:g}, got {value!r}")
        return default
    return value


def _parse_int(data, field, err, default, minimum=None, maximum=None):
    value = data.get(field)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        err(field, "bad-type", f"must be an integer, got {value!r}")
        return default
    if minimum is not None and value < minimum:
        err(field, "out-of-range", f"must be >= {minimum}, got {value}")
        return default
    if maximum is not None and value > maximum:
        err(field, "out-of-range", f"must be <= {maximum}, got {value}")
        return default
    return value


def _parse_shape(value, topology, err) -> tuple[int, ...]:
    want = 3 if topology is TopologyKind.TORUS else 2
    fallback = (2, 4, 4) if want == 3 else (4, 16)
    if value is None:
        return fallback
    if isinstance(value, str):
        try:
            dims = tuple(int(tok) for tok in value.lower().split("x"))
        except ValueError:
            err("shape", "bad-shape",
                f"bad shape {value!r}; expected e.g. "
                f"{'2x4x4' if want == 3 else '4x16'}")
            return fallback
    elif (isinstance(value, (list, tuple)) and value
          and all(isinstance(d, int) and not isinstance(d, bool)
                  for d in value)):
        dims = tuple(value)
    else:
        err("shape", "bad-type",
            f"must be a 'MxNxK' string or a list of integers, got {value!r}")
        return fallback
    if len(dims) != want:
        err("shape", "bad-shape",
            f"{topology.value} shapes have {want} dimensions, got "
            f"{len(dims)} in {value!r}")
        return fallback
    if any(d < 1 for d in dims):
        err("shape", "out-of-range",
            f"shape dimensions must be >= 1, got {value!r}")
        return fallback
    return dims
