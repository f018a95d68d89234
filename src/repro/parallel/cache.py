"""Content-addressed run cache for design-space exploration.

The Sec. V studies evaluate dozens of platform x workload x size points,
and many points repeat across figures (the same torus shape at the same
payload) and across re-runs of the same figure.  Every simulation here is
deterministic, so a completed point is a pure function of its inputs —
which makes its result cacheable under a content-addressed key:

    sha256(code salt | canonical SimulationConfig | topology identity |
           collective op | payload size | backend)

The canonical config form is the ``repr`` of the frozen nested config
dataclasses: it is deterministic and covers every field, so two points
agree on a key iff a simulation cannot tell them apart.  ``CACHE_SALT`` is the
code-version component — bump it whenever a change alters simulated
timing, and every previously cached result is invalidated at once.

Only *pure* points are cached: a platform carrying a fault schedule, a
stall watchdog, a custom backend factory, a reliable transport, or a
runtime sanitizer is executed fresh every time (faulty/chaos runs are
exactly the ones whose side effects — diagnostic bundles, sanitizer
findings — the caller wants re-produced).

Entries are one JSON file per key with atomic writes, so a cache
directory can be shared by concurrent processes; a corrupt or truncated
entry is quarantined to the ``corrupt/`` subdirectory, counted in the
cache summary, and treated as a miss so the next store rewrites it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from typing import Any, Optional

#: Per-process temp-file sequence: two threads of one process writing the
#: same key get distinct temp names (pids already distinguish processes).
_TMP_SEQ = itertools.count()

from repro.errors import ReproError
from repro.system.stats import DelayBreakdown

#: Code-version component of every cache key.  Bump on any change that
#: alters simulated timing (collective schedules, link model, backend
#: behavior): stale results must never be served across such a change.
CACHE_SALT = "astra-repro/run-cache/v1"

#: Payload schema version; entries with another schema are misses.
#: 2: the breakdown carries ``ready_queue_count`` and compacted delays.
PAYLOAD_SCHEMA = 2


def collective_cache_key(spec: Any, op: Any, size_bytes: float,
                         backend: str = "fast") -> Optional[str]:
    """The content-addressed key for one collective point, or ``None``
    when the point is not cacheable (see the module docstring).

    ``spec`` is a :class:`repro.harness.runners.PlatformSpec`; its name
    carries the topology identity (family + shape), and the frozen config
    repr carries every other simulated parameter.
    """
    if spec.fault_schedule is not None or spec.watchdog is not None:
        return None
    if spec.backend_factory is not None:
        return None
    if spec.config.system.transport is not None:
        return None
    material = "\x1f".join((
        CACHE_SALT,
        spec.name,
        repr(spec.config),
        str(getattr(op, "value", op)),
        repr(float(size_bytes)),
        backend,
    ))
    return hashlib.sha256(material.encode()).hexdigest()


def result_to_payload(result: Any, key: str) -> dict[str, Any]:
    """Serialize a :class:`~repro.harness.runners.CollectiveResult`."""
    return {
        "schema": PAYLOAD_SCHEMA,
        "key": key,
        "label": result.label,
        "op": result.op.value,
        "size_bytes": result.size_bytes,
        "duration_cycles": result.duration_cycles,
        "num_npus": result.num_npus,
        "breakdown": result.breakdown.as_dict(),
    }


def payload_to_result(payload: dict[str, Any]) -> Any:
    """Rebuild a :class:`CollectiveResult` from a cached payload.

    The rebuilt result has ``system=None`` and ``transport_stats=None``:
    cached points are pure (no transport, no watchdog), so neither
    field ever carried information for them.
    """
    from repro.collectives.types import CollectiveOp
    from repro.harness.runners import CollectiveResult

    return CollectiveResult(
        label=payload["label"],
        op=CollectiveOp(payload["op"]),
        size_bytes=float(payload["size_bytes"]),
        duration_cycles=float(payload["duration_cycles"]),
        breakdown=DelayBreakdown.from_dict(payload["breakdown"]),
        num_npus=int(payload["num_npus"]),
    )


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`RunCache` lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Corrupt/truncated entries moved aside to ``corrupt/`` (each also
    #: counts as a miss — the caller re-simulates and rewrites).
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt}


class RunCache:
    """A directory of content-addressed run results.

    Safe to share between concurrent processes (the parallel executor's
    workers, several ``astra-repro`` invocations, the serve daemon's
    clients): writes are atomic renames, directory creation tolerates
    races, and a corrupt entry both racers notice is quarantined — and
    counted — exactly once.  An optional ``namespace`` scopes entries
    under a subdirectory, so tenants sharing one cache root (e.g. a
    service instance per team) can isolate their entries and their
    corrupt-quarantine blast radius without separate roots.

    >>> import tempfile
    >>> cache = RunCache(tempfile.mkdtemp())
    >>> cache.get("0" * 64) is None
    True
    """

    def __init__(self, directory: str, namespace: Optional[str] = None):
        if not directory:
            raise ReproError("run cache needs a directory")
        if namespace is not None:
            if (not namespace or os.sep in namespace or namespace in
                    (".", "..") or namespace.startswith(".")):
                raise ReproError(
                    f"cache namespace must be a plain directory name, "
                    f"got {namespace!r}")
            directory = os.path.join(directory, namespace)
        self.directory = directory
        self.namespace = namespace
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` on a miss.

        A schema-mismatched entry (older code version) is a plain miss.
        A corrupt, truncated, or wrong-key entry is *quarantined*: moved
        to the ``corrupt/`` subdirectory (preserving the evidence for
        inspection), counted, and reported in :meth:`summary` — then
        treated as a miss so the next :meth:`put` rewrites it.
        """
        try:
            with open(self._path(key)) as f:
                payload = json.load(f)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self._quarantine_corrupt(key)
            self.stats.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            self._quarantine_corrupt(key)
            self.stats.misses += 1
            return None
        if payload.get("schema") != PAYLOAD_SCHEMA:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def _quarantine_corrupt(self, key: str) -> None:
        """Move a damaged entry aside to ``corrupt/`` and count it.

        Two processes can notice the same damaged entry at once; the
        ``os.replace`` is the arbiter — exactly one racer moves the file
        (and counts it), the loser sees ``FileNotFoundError`` and counts
        nothing.  Neither ever surfaces an exception to its caller: a
        quarantine race is still just a cache miss.
        """
        path = self._path(key)
        corrupt_dir = os.path.join(self.directory, "corrupt")
        try:
            os.makedirs(corrupt_dir, exist_ok=True)
        except OSError:
            return  # unwritable cache root: stay a plain miss
        try:
            os.replace(path, os.path.join(corrupt_dir, os.path.basename(path)))
        except FileNotFoundError:
            return  # racing reader already moved it; nothing to count twice
        except OSError:
            return
        self.stats.corrupt += 1

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (atomic; last writer wins).

        Concurrent writers of the same key are safe: each writes its own
        pid+sequence temp file, and the final ``os.replace`` is atomic —
        readers only ever see a complete entry from one writer or the
        other.
        """
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(key)
        tmp = f"{path}.{os.getpid()}.{next(_TMP_SEQ)}.tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
        self.stats.stores += 1

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.directory)
                       if name.endswith(".json"))
        except OSError:
            return 0

    def summary(self) -> str:
        s = self.stats
        line = (f"run cache {self.directory}: {s.hits} hits, "
                f"{s.misses} misses, {s.stores} stored")
        lookups = s.hits + s.misses
        if lookups:
            line += f" ({100.0 * s.hits / lookups:.0f}% hit rate)"
        if s.corrupt:
            line += f", {s.corrupt} corrupt quarantined"
        return line
