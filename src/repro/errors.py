"""Exception hierarchy for the repro (ASTRA-SIM reproduction) package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

# -- the process exit-code contract ---------------------------------------------
#
# Every astra-repro subcommand that can partially succeed (lint, analyze,
# chaos, supervised batches, serve) shares one three-value contract.  The
# constants live here — next to the exceptions that map onto them — so the
# CLI paths and the supervision/service layers declare it once instead of
# re-hardcoding 0/1/2 at every return site.

#: Clean exit: every point completed / no findings at the gating severity.
EXIT_OK = 0
#: Partial results: findings were reported, or at least one design point
#: was quarantined — completed work is still reported.
EXIT_PARTIAL = 1
#: Usage or configuration error: nothing was simulated.
EXIT_CONFIG = 2


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid or inconsistent simulator configuration."""


class TopologyError(ReproError):
    """A malformed physical or logical topology, or an invalid mapping."""


class NetworkError(ReproError):
    """A network-layer failure (unroutable message, bad endpoint, ...)."""


class TransportError(NetworkError):
    """Reliable transport gave up on a message (retry budget exhausted)."""


class CollectiveError(ReproError):
    """An invalid collective request or a broken collective state machine."""


class SchedulerError(ReproError):
    """A system-layer scheduling invariant was violated."""


class WorkloadError(ReproError):
    """A malformed workload description or training-loop failure."""


class SimulationError(ReproError):
    """The event engine detected an inconsistency (e.g. time moving backwards)."""


class StallError(SimulationError):
    """The watchdog detected a no-progress window (see repro.resilience)."""


class PoisonPointError(ReproError):
    """A supervised point exhausted its retry budget under ``on_poison="fail"``
    (see repro.parallel.supervisor)."""


class SanitizerError(ReproError):
    """A runtime invariant checker detected a violation (see repro.sanitize)."""
