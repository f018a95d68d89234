"""Pins of what the input validators report and build.

Three sets, recorded in ``tests/data/input_schema_pins.json``:

* ``lint``: the ``(severity, code, param)`` findings of every shipped
  bad-config fixture, every example config and every preset platform;
* ``payloads``: the sorted ``(field, code)`` list of the 400 body the
  service returns for each bad payload below;
* ``platform_digest``: one sha256 over ``(spec.name, repr(spec.config))``
  — the run-cache key material — of every Fig. 9 search point, every
  ``service_mixed`` benchmark cell and the ``collective`` CLI defaults on
  2x4x4, 2x2x2 and AllToAll 4x16.

Message wording may change; what a validator flags, where, and what a
valid input builds may not.  Regenerate (only on purpose) with
``PYTHONPATH=src python tests/integration/test_input_schema_pins.py``.
"""

import hashlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PINS = ROOT / "tests" / "data" / "input_schema_pins.json"

GOOD = {"op": "allreduce", "size_mb": 0.0625}

#: Every bad payload of tests/service/test_schema.py.
BAD_PAYLOADS = [
    ["not", "an", "object"],
    {},
    {**GOOD, "algoritm": "enhanced"},
    {"op": "bogus", "size_mb": -1, "priority": 99, "compute_scale": 0},
    {**GOOD, "op": "nope"},
    {**GOOD, "topology": "Ring"},
    {**GOOD, "algorithm": "quantum"},
    {**GOOD, "scheduling_policy": "RANDOM"},
    {**GOOD, "size_mb": 0},
    {**GOOD, "size_mb": -4},
    {**GOOD, "size_mb": 2048.0},
    {**GOOD, "size_mb": "eight"},
    {**GOOD, "size_mb": True},
    {**GOOD, "priority": -1},
    {**GOOD, "priority": 10},
    {**GOOD, "priority": 1.5},
    {**GOOD, "local_rings": 0},
    {**GOOD, "preferred_set_splits": 0},
    {**GOOD, "compute_scale": -1.0},
    {**GOOD, "symmetric": "yes"},
    {**GOOD, "shape": "axbxc"},
    {**GOOD, "shape": "2x4"},
    {**GOOD, "shape": [0, 2, 2]},
    {**GOOD, "schema": 2},
    {**GOOD, "topology": "AllToAll", "shape": "2x2x2"},
    {"op": "nope"},
    {"op": "bogus", "size_mb": 1.0},
    {"op": "bogus", "size_mb": -1},
]

#: The service_mixed benchmark's (topology, shape) x op cells.
SERVICE_CELLS = [(topo, shape, op)
                 for topo, shape in (("Torus", [2, 2, 2]), ("Torus", [2, 2, 4]),
                                     ("AllToAll", [2, 4]))
                 for op in ("allreduce", "allgather", "reducescatter", "alltoall")]

CLI_DEFAULTS = [
    ["collective", "--shape", "2x4x4"],
    ["collective", "--shape", "2x2x2"],
    ["collective", "--topology", "AllToAll", "--shape", "4x16"],
]


def lint_pins() -> dict:
    from repro.sanitize.static_lint import lint_presets, lint_spec_file

    reports = list(lint_presets())
    for pattern in ("tests/data/badconfigs/*.json", "examples/configs/*.json"):
        for path in sorted(ROOT.glob(pattern)):
            report = lint_spec_file(str(path))
            report.source = str(path.relative_to(ROOT))
            reports.append(report)
    return {report.source: sorted([f.severity.value, f.code, f.param]
                                  for f in report.findings)
            for report in reports}


def payload_pins() -> list:
    from repro.service.schema import PayloadError, parse_payload

    out = []
    for payload in BAD_PAYLOADS:
        try:
            parse_payload(payload)
        except PayloadError as exc:
            errors = sorted([e["field"], e["code"]] for e in exc.errors)
        else:
            errors = None
        out.append({"payload": payload, "errors": errors})
    return out


def platform_specs():
    """Every platform the digest covers, in a fixed order."""
    from repro.cli import _build_platform, build_arg_parser
    from repro.search.space import SearchSpace
    from repro.service.schema import parse_payload

    space = SearchSpace.from_file(str(ROOT / "examples" / "configs" / "search_fig09.json"))
    for genome in space.enumerate_genomes():
        yield space.decode(genome).platform_spec()
    for topo, shape, op in SERVICE_CELLS:
        yield parse_payload({"op": op, "size_mb": 0.0625, "topology": topo,
                             "shape": shape}).platform_spec()
    for argv in CLI_DEFAULTS:
        yield _build_platform(build_arg_parser().parse_args(argv))


def platform_digest() -> dict:
    digest = hashlib.sha256()
    count = 0
    for spec in platform_specs():
        digest.update(repr((spec.name, repr(spec.config))).encode())
        count += 1
    return {"count": count, "sha256": digest.hexdigest()}


def current() -> dict:
    return {"lint": lint_pins(), "payloads": payload_pins(),
            "platform_digest": platform_digest()}


PINNED = json.loads(PINS.read_text()) if PINS.exists() else None


def test_lint_findings_match_pins():
    """Fixtures added after the pins were taken are checked by their own tests."""
    found = lint_pins()
    assert {source: found.get(source) for source in PINNED["lint"]} == PINNED["lint"]


def test_payload_400_bodies_match_pins():
    for got, want in zip(payload_pins(), PINNED["payloads"], strict=True):
        assert got == want


def test_platform_digest_matches_pins():
    """312 Fig. 9 points + 12 service cells + 3 CLI defaults."""
    assert platform_digest() == PINNED["platform_digest"]
    assert PINNED["platform_digest"]["count"] == 312 + 12 + 3


if __name__ == "__main__":
    PINS.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
