"""Simulation sanitizer: static lint, determinism analysis, runtime checks.

Four complementary halves guard the event/network/collective stack:

* :mod:`repro.sanitize.static_lint` — checks inputs *before* simulation
  starts: the JSON documents commands read (fault schedules, search
  spaces, service payloads) against their field tables, and platform
  configs for cross-parameter consistency (flit/packet alignment,
  bandwidth hierarchy), surfaced through the
  ``astra-repro lint`` subcommand with machine-readable findings.
* :mod:`repro.sanitize.source_lint` — AST-level determinism lint over the
  simulator's own Python sources (unseeded RNGs, wall-clock reads,
  unordered-set iteration, ``id()`` ordering, order-sensitive float
  accumulation), surfaced through ``astra-repro analyze --source``.
* :mod:`repro.sanitize.schedule` — the dynamic half of the determinism
  analysis: re-runs a config under seeded permutations of same-timestamp
  event order and proves the results bit-identical (or bisects to the
  first diverging event); ``astra-repro analyze --schedule``.
* :mod:`repro.sanitize.runtime` — pluggable invariant checkers installed
  into the event queue, both network backends and the collective state
  machines (time-travel scheduling, zero-delay livelock, flit/credit
  conservation, barrier over/under-arrival, drain deadlocks).  Off by
  default; enabled with ``--sanitize`` / ``sanitize=True``.

See docs/DETERMINISM.md for the determinism contract the middle two
enforce.
"""

from repro.sanitize.findings import (
    Finding,
    LintReport,
    Severity,
)
from repro.sanitize.runtime import (
    RuntimeSanitizer,
    SanitizedEventQueue,
    SanitizerConfig,
)
from repro.sanitize.schedule import (
    CollectiveProbe,
    DivergenceReport,
    InjectedRaceProbe,
    ScheduleReport,
    SeededTieBreak,
    run_schedule_trials,
)
from repro.sanitize.source_lint import (
    lint_source_file,
    lint_source_text,
    lint_source_tree,
)
from repro.sanitize.static_lint import (
    lint_config,
    lint_fault_schedule,
    lint_platform,
    lint_presets,
    lint_search_space,
    lint_spec_file,
)

__all__ = [
    "Finding",
    "LintReport",
    "Severity",
    "RuntimeSanitizer",
    "SanitizedEventQueue",
    "SanitizerConfig",
    "CollectiveProbe",
    "DivergenceReport",
    "InjectedRaceProbe",
    "ScheduleReport",
    "SeededTieBreak",
    "run_schedule_trials",
    "lint_source_file",
    "lint_source_text",
    "lint_source_tree",
    "lint_config",
    "lint_fault_schedule",
    "lint_platform",
    "lint_presets",
    "lint_search_space",
    "lint_spec_file",
]
