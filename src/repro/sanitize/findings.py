"""Machine-readable lint/sanitizer findings.

Every check — static or runtime — reports problems as :class:`Finding`
records carrying a stable code, the offending parameter path, a severity
and a human-readable message.  :class:`LintReport` aggregates findings
for one lint target (a config file, a preset, a platform) and renders
them for terminals (``format``) or tooling (``to_dict`` / JSON).
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make ``astra-repro lint`` / ``astra-repro analyze``
    exit with status 1; ``WARNING`` only does under ``--strict``; ``INFO``
    is advisory.  Severities are ordered: ``ERROR`` ranks before
    ``WARNING`` ranks before ``INFO``, and findings sort most-severe
    first (see :meth:`Finding.sort_key`).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Ordering rank: 0 is most severe."""
        return _SEVERITY_RANK[self]

    def __lt__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank < other.rank


_SEVERITY_RANK = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass(frozen=True)
class Finding:
    """One lint/sanitizer finding.

    ``code`` is a stable kebab-case identifier tools can match on (e.g.
    ``flit-packet-misalignment``); ``param`` is the dotted parameter path the
    finding anchors to (e.g. ``network.local_link.packet_size_bytes``);
    ``source`` names the linted file or preset.
    """

    severity: Severity
    code: str
    param: str
    message: str
    source: str = ""
    #: 1-based source line for file-anchored findings (the source linter);
    #: 0 means "not line-anchored" (config/runtime findings).
    line: int = 0

    def format(self) -> str:
        where = f"{self.source}: " if self.source else ""
        at = f"{self.param}: " if self.param else ""
        return f"{where}{self.severity.value}: [{self.code}] {at}{self.message}"

    def sort_key(self) -> tuple:
        """Sort most-severe first, then by source, line and code — a
        stable order that does not depend on discovery order."""
        return (self.severity.rank, self.source, self.line, self.code, self.param)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["severity"] = self.severity.value
        return data


@dataclass
class LintReport:
    """All findings for one lint target."""

    source: str = ""
    findings: list[Finding] = field(default_factory=list)

    def add(
        self,
        severity: Severity,
        code: str,
        param: str,
        message: str,
        line: int = 0,
    ) -> None:
        self.findings.append(
            Finding(severity=severity, code=code, param=param,
                    message=message, source=self.source, line=line)
        )

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def ok(self, strict: bool = False) -> bool:
        """True when the target passes lint (no errors; no warnings if
        ``strict``)."""
        if self.errors:
            return False
        return not (strict and self.warnings)

    def format(self) -> str:
        if not self.findings:
            return f"{self.source or 'lint'}: ok"
        return "\n".join(f.format() for f in self.findings)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "findings": [f.to_dict() for f in self.findings],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }


def reports_to_json(reports: list[LintReport], indent: int = 2) -> str:
    """Serialize a batch of lint reports for tooling consumption."""
    return json.dumps([r.to_dict() for r in reports], indent=indent)
