"""Schedule-perturbation race detector (dynamic determinism analysis).

The static linter (:mod:`repro.sanitize.source_lint`) finds *sources* of
nondeterminism in the code; this module hunts for *latent schedule races*
in the running simulation.  The event engine drains same-timestamp events
in FIFO order (the ``seq`` tie-break in
:class:`repro.events.engine.EventQueue`), which makes every run
reproducible — but reproducible is not the same as *race-free*.  If two
handlers at the same cycle produce a different simulation depending on
which fires first, the model's result encodes an accident of scheduling
order, and any refactor that reorders ``schedule()`` calls silently
changes published numbers.

The detector's contract: **a correct simulation must produce bit-identical
results under any permutation of same-timestamp event order.**  It proves
(or refutes) this empirically:

1. Run the probe once under plain FIFO — the baseline.  The baseline
   installs :func:`fifo_rank`, an all-zero ranker: every entry is a
   ranked event numbered like the permuted trials', and same-timestamp
   order stays FIFO, which is exactly the production order (the engine
   fires each time's entries in schedule order).
2. Run it ``trials`` more times, each with a :class:`SeededTieBreak`
   installed as the queue's ``tie_breaker`` hook: a seeded hash of the
   FIFO sequence number, ranked *between* timestamp and sequence, so
   same-timestamp events drain in a pseudo-random (but per-seed
   deterministic) permutation while cross-timestamp order is untouched.
3. Fingerprint each run's result payload (stats, cycles, breakdown) and
   compare against the baseline, bit-for-bit.

On a fingerprint mismatch the detector *bisects*: both schedules are
re-run with a tracing watcher that records ``(time, seq, handler)`` per
executed event; because the two runs schedule identical events until the
first order-sensitive handler fires, the first position where the traces
differ is the race point.  Both runs are then replayed up to that event
and a :class:`DivergenceReport` is assembled with each side's wait-for
summary and diagnostics snapshot — the same bundle format the stall
watchdog writes (:mod:`repro.resilience.watchdog`), so the post-mortem
tooling is shared.

Probes
------
A *probe* is any object with a ``label`` and a ``run(queue, on_system=None)``
method that executes one simulation on the supplied event queue and
returns a JSON-serializable result payload.  :class:`CollectiveProbe`
wraps the harness's platform builders (``fig09.schedule_probes()`` /
``fig12.schedule_probes()`` build ready-made batches);
:class:`InjectedRaceProbe` is a deliberately order-sensitive simulation
shipped as the detector's self-test — it must *always* be caught.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.events.engine import EventQueue
from repro.sanitize.findings import LintReport, Severity

_MASK64 = (1 << 64) - 1

#: Default seed for trial derivation (the paper's year; any value works —
#: results must be identical under *every* seed, that is the point).
DEFAULT_SCHEDULE_SEED = 2020

#: Default number of permuted schedules to try per probe.
DEFAULT_SCHEDULE_TRIALS = 8


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a fast, well-distributed 64-bit integer mix.

    Used instead of ``hash()`` so tie-break ranks do not depend on
    ``PYTHONHASHSEED`` — the detector's own trials must be reproducible.
    """
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def fifo_rank(time: float, seq: int) -> int:
    """The all-zero ranker: FIFO order, every entry a numbered event."""
    return 0


def trial_seed(seed: int, trial: int) -> int:
    """Derive the per-trial tie-break seed from the base seed (trial >= 1)."""
    return _mix64((seed & _MASK64) + trial * 0x9E3779B97F4A7C15)


class SeededTieBreak:
    """A ``tie_breaker`` hook permuting same-timestamp event order.

    Ranks each event by a seeded mix of its FIFO sequence number.  The
    timestamp is deliberately *not* mixed in: float-to-int keying would
    make ranks sensitive to representation details, and the heap already
    orders by time first — only same-time events compete on rank.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = seed & _MASK64

    def __call__(self, time: float, seq: int) -> int:
        return _mix64(self.seed ^ _mix64(seq))

    def __repr__(self) -> str:
        return f"SeededTieBreak(seed=0x{self.seed:x})"


# -- probes ---------------------------------------------------------------------


@dataclass
class CollectiveProbe:
    """One harness collective run as a perturbation target.

    ``platform_builder`` is a zero-arg callable returning a fresh
    :class:`repro.harness.runners.PlatformSpec` (a fresh platform per
    trial keeps trials independent); ``op``/``size_bytes`` mirror
    :func:`repro.harness.runners.run_collective`.
    """

    label: str
    platform_builder: Callable[[], Any]
    op: Any
    size_bytes: float
    max_events: Optional[int] = None

    def run(self, queue: EventQueue, on_system=None) -> dict:
        platform = self.platform_builder()
        system = platform.build_system(events=queue)
        if on_system is not None:
            on_system(system)
        collective = system.request_collective(
            self.op, self.size_bytes, name=self.op.value)
        system.run_until_idle(max_events=self.max_events)
        return {
            "duration_cycles": collective.duration_cycles,
            "final_time": system.now,
            "events_processed": queue.events_processed,
            "breakdown": system.breakdown.rows(),
        }


class InjectedRaceProbe:
    """A deliberately order-sensitive simulation — the detector self-test.

    ``fan_out`` handlers are scheduled at the same timestamp; each folds
    its index into a non-commutative accumulator (``acc = acc * 31 + i``),
    so the result encodes the drain order.  Under FIFO the digest is
    fixed; under any non-identity permutation it differs — the detector
    must flag this probe and bisect to the first permuted event.
    """

    def __init__(self, fan_out: int = 6):
        self.label = "injected-race"
        self.fan_out = fan_out
        self._fired: list[int] = []

    def run(self, queue: EventQueue, on_system=None) -> dict:
        self._fired = []
        acc = 0

        def make(i: int):
            def fire() -> None:
                nonlocal acc
                acc = acc * 31 + i  # order-sensitive on purpose
                self._fired.append(i)
            return fire

        for i in range(self.fan_out):
            queue.schedule_at(10.0, make(i))
        queue.run()
        return {"digest": acc, "final_time": queue.now,
                "events_processed": queue.events_processed}

    def snapshot(self) -> dict:
        """Partial-run state for divergence bundles (no System to ask)."""
        return {"fired_order": list(self._fired)}


# -- tracing / replay -----------------------------------------------------------


class ScheduleReplayLimit(Exception):
    """Raised by the replay tracer when it reaches its event limit.

    Control flow only — the bisection runner catches it after stepping a
    run up to the divergence point; it never escapes this module.
    """


def _describe_callback(cb: Callable) -> str:
    """A stable human-readable handler name for trace records."""
    while isinstance(cb, functools.partial):
        cb = cb.func
    qual = getattr(cb, "__qualname__", None)
    if qual is None:  # callable instance
        cls = type(cb)
        qual = cls.__qualname__
        mod = cls.__module__
    else:
        mod = getattr(cb, "__module__", "") or ""
    return f"{mod}.{qual}" if mod else qual


class _Tracer:
    """A queue watcher recording ``(time, seq, handler)`` per event.

    With a ``limit``, raises :class:`ScheduleReplayLimit` *before* event
    number ``limit`` fires — the replay stops with the pre-event state
    intact.  Traced queues have a tie-breaker installed, so every entry
    is a ranked event (``.seq``, ``.callback``).
    """

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.records: list[tuple[float, int, str]] = []

    def __call__(self, time: float, entry) -> None:
        if self.limit is not None and len(self.records) >= self.limit:
            raise ScheduleReplayLimit()
        self.records.append(
            (time, entry.seq, _describe_callback(entry.callback)))


def _traced_queue(tie_breaker, limit: Optional[int] = None
                  ) -> tuple[EventQueue, _Tracer]:
    queue = EventQueue()
    queue.tie_breaker = tie_breaker
    tracer = _Tracer(limit)
    queue.watch(tracer)
    return queue, tracer


# -- reports --------------------------------------------------------------------


@dataclass
class ScheduleOutcome:
    """One trial's result: which schedule ran and what it produced."""

    trial: int          #: 0 is the FIFO baseline; 1..N the permutations.
    seed: int           #: Tie-break seed (0 for the baseline).
    fingerprint: str    #: SHA-256 over the canonical JSON payload.
    payload: dict = field(repr=False)
    events_processed: int = 0
    events_simulated: int = 0
    final_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "events_processed": self.events_processed,
            "events_simulated": self.events_simulated,
            "final_time": self.final_time,
        }


@dataclass
class DivergenceReport:
    """Where two schedules of the same simulation first disagreed.

    ``baseline_state`` / ``diverging_state`` reuse the stall watchdog's
    bundle vocabulary (``wait_for`` text + ``diagnostics`` dict from
    :meth:`repro.system.sys_layer.System.diagnostics`), captured with each
    run replayed up to — but not including — the first diverging event.
    """

    label: str
    diverging_trial: int
    diverging_seed: int
    first_divergence_index: int
    baseline_event: Optional[dict]
    diverging_event: Optional[dict]
    shared_prefix: list[dict]
    payload_diff: list[str]
    baseline_state: dict
    diverging_state: dict

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "diverging_trial": self.diverging_trial,
            "diverging_seed": self.diverging_seed,
            "first_divergence_index": self.first_divergence_index,
            "baseline_event": self.baseline_event,
            "diverging_event": self.diverging_event,
            "shared_prefix": self.shared_prefix,
            "payload_diff": self.payload_diff,
            "baseline_state": self.baseline_state,
            "diverging_state": self.diverging_state,
        }

    def summary(self) -> str:
        def fmt(ev: Optional[dict]) -> str:
            if ev is None:
                return "<run ended>"
            return f"t={ev['time']:g} seq={ev['seq']} {ev['callback']}"

        lines = [
            f"schedule race in {self.label}: trial {self.diverging_trial} "
            f"(seed 0x{self.diverging_seed:x}) diverged from the FIFO "
            f"baseline at event #{self.first_divergence_index}",
            f"  baseline fired:  {fmt(self.baseline_event)}",
            f"  perturbed fired: {fmt(self.diverging_event)}",
        ]
        if self.payload_diff:
            lines.append("  result fields differing: "
                         + ", ".join(self.payload_diff))
        for side, state in (("baseline", self.baseline_state),
                            ("perturbed", self.diverging_state)):
            wait_for = state.get("wait_for")
            if wait_for:
                lines.append(f"  {side} {wait_for.splitlines()[0]}")
        return "\n".join(lines)


@dataclass
class ScheduleReport:
    """All trials for one probe, plus the bisected divergence if any."""

    label: str
    trials: int
    seed: int
    outcomes: list[ScheduleOutcome]
    divergence: Optional[DivergenceReport] = None

    @property
    def identical(self) -> bool:
        """True when every permuted schedule reproduced the baseline."""
        if self.divergence is not None:
            return False
        baseline = self.outcomes[0].fingerprint
        return all(o.fingerprint == baseline for o in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "trials": self.trials,
            "seed": self.seed,
            "identical": self.identical,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "divergence": (self.divergence.to_dict()
                           if self.divergence is not None else None),
        }

    def summary(self) -> str:
        if self.identical:
            ran = len(self.outcomes) - 1
            return (f"{self.label}: bit-identical under {ran} permuted "
                    f"schedules (fingerprint "
                    f"{self.outcomes[0].fingerprint[:12]})")
        assert self.divergence is not None
        return self.divergence.summary()

    def to_findings(self) -> LintReport:
        """Render as lint findings for the shared reporters/exit codes."""
        report = LintReport(source=self.label)
        if self.divergence is not None:
            d = self.divergence
            report.add(
                Severity.ERROR,
                "schedule-divergence",
                f"trial{d.diverging_trial}",
                f"result depends on same-timestamp event order: "
                f"first diverging event #{d.first_divergence_index} "
                f"({(d.diverging_event or {}).get('callback', '?')})",
            )
        return report


# -- the detector ---------------------------------------------------------------


def _fingerprint(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _flatten(prefix: str, value: Any, out: dict) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, out)
    else:
        out[prefix] = value


def payload_diff(a: dict, b: dict) -> list[str]:
    """Dotted paths of result fields that differ between two payloads."""
    flat_a: dict = {}
    flat_b: dict = {}
    _flatten("", a, flat_a)
    _flatten("", b, flat_b)
    keys = sorted(set(flat_a) | set(flat_b))
    sentinel = object()
    return [k for k in keys
            if flat_a.get(k, sentinel) != flat_b.get(k, sentinel)]


def _run_trial(probe, trial: int, seed: int,
               tie_breaker: Optional[Callable[[float, int], int]]
               ) -> ScheduleOutcome:
    queue = EventQueue()
    queue.tie_breaker = tie_breaker
    payload = probe.run(queue)
    return ScheduleOutcome(
        trial=trial, seed=seed, fingerprint=_fingerprint(payload),
        payload=payload, events_processed=queue.events_processed,
        events_simulated=queue.events_simulated, final_time=queue.now,
    )


def _traced_run(probe, tie_breaker) -> list[tuple[float, int, str]]:
    queue, tracer = _traced_queue(tie_breaker)
    probe.run(queue)
    return tracer.records


def _partial_run(probe, tie_breaker, limit: int) -> dict:
    """Replay a schedule up to ``limit`` events; snapshot where it stands."""
    queue, _tracer = _traced_queue(tie_breaker, limit)
    captured: list = []
    try:
        probe.run(queue, on_system=captured.append)
    except ScheduleReplayLimit:
        pass
    state: dict = {
        "time": queue.now,
        "events_processed": queue.events_processed,
    }
    if captured:
        system = captured[0]
        state["wait_for"] = system.wait_for_summary()
        state["diagnostics"] = system.diagnostics()
    else:
        snapshot = getattr(probe, "snapshot", None)
        if snapshot is not None:
            state["diagnostics"] = snapshot()
    return state


def _record_dict(record: Optional[tuple[float, int, str]],
                 index: int) -> Optional[dict]:
    if record is None:
        return None
    time, seq, callback = record
    return {"index": index, "time": time, "seq": seq, "callback": callback}


def bisect_divergence(probe, trial: int, seed: int,
                      baseline: ScheduleOutcome, diverged: ScheduleOutcome,
                      context_events: int = 12) -> DivergenceReport:
    """Locate the first event where the permuted schedule left the baseline.

    Re-runs both schedules traced, finds the first differing trace record,
    then replays each side up to that event for a state snapshot.  Until
    the first order-sensitive handler fires, both runs schedule the exact
    same events, so the first trace difference *is* the race point.
    """
    base_trace = _traced_run(probe, fifo_rank)
    div_trace = _traced_run(probe, SeededTieBreak(seed))
    limit = min(len(base_trace), len(div_trace))
    index = next((i for i in range(limit)
                  if base_trace[i] != div_trace[i]), limit)
    prefix_start = max(0, index - context_events)
    shared_prefix = [
        _record_dict(base_trace[i], i) for i in range(prefix_start, index)
    ]
    return DivergenceReport(
        label=probe.label,
        diverging_trial=trial,
        diverging_seed=seed,
        first_divergence_index=index,
        baseline_event=_record_dict(
            base_trace[index] if index < len(base_trace) else None, index),
        diverging_event=_record_dict(
            div_trace[index] if index < len(div_trace) else None, index),
        shared_prefix=shared_prefix,
        payload_diff=payload_diff(baseline.payload, diverged.payload),
        baseline_state=_partial_run(probe, fifo_rank, index),
        diverging_state=_partial_run(probe, SeededTieBreak(seed), index),
    )


def run_schedule_trials(
    probe,
    trials: int = DEFAULT_SCHEDULE_TRIALS,
    seed: int = DEFAULT_SCHEDULE_SEED,
    context_events: int = 12,
) -> ScheduleReport:
    """Run ``probe`` under FIFO and ``trials`` permuted schedules.

    Stops at the first diverging trial (the config is already proven
    racy) and bisects it; otherwise returns a report whose
    :attr:`ScheduleReport.identical` is True — the probe's result is
    independent of same-timestamp event order for every seed tried.
    """
    baseline = _run_trial(probe, 0, 0, fifo_rank)
    outcomes = [baseline]
    divergence = None
    for trial in range(1, trials + 1):
        tseed = trial_seed(seed, trial)
        outcome = _run_trial(probe, trial, tseed, SeededTieBreak(tseed))
        outcomes.append(outcome)
        if outcome.fingerprint != baseline.fingerprint:
            divergence = bisect_divergence(
                probe, trial, tseed, baseline, outcome,
                context_events=context_events)
            break
    return ScheduleReport(label=probe.label, trials=trials, seed=seed,
                          outcomes=outcomes, divergence=divergence)
