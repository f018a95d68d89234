"""The ``astra-repro serve`` daemon: simulation as a hardened service.

A stdlib-only HTTP daemon where every edge is defensive:

* **Admission** — request bodies are parsed into the strict
  :class:`~repro.service.schema.SimulationPayload` schema (unknown keys,
  bad enums, cross-parameter lint); anything invalid is a structured
  ``400`` before a single simulation cycle runs.
* **Backpressure** — accepted payloads enter a
  :class:`~repro.service.queue.BoundedJobQueue`; a full queue answers
  ``429 Too Many Requests`` with ``Retry-After`` instead of stalling the
  accept loop.  Identical in-flight payloads coalesce onto one job via
  the RunCache content key.
* **Supervised execution** — jobs run through a
  :class:`~repro.parallel.executor.ParallelExecutor` with a
  :class:`~repro.parallel.supervisor.SupervisionPolicy`: per-job
  wall-clock deadlines, seeded-backoff retries, and poison-payload
  quarantine with diagnostic bundles.  A poison job answers its client
  with a structured error; the daemon keeps serving everyone else.
* **Crash-safe resume** — submissions and outcomes share one
  :class:`~repro.parallel.supervisor.OutcomeJournal` (``"job"`` records
  from the daemon, ``"outcome"`` records from the executor).  SIGTERM
  closes the queue and drains it; a SIGKILLed daemon restarts against
  the same state directory, replays the journal, completes finished jobs
  instantly, and re-enqueues unfinished ones — zero re-simulation of any
  completed point (the acceptance contract in ``docs/SERVICE.md``).
* **Observability** — ``/healthz`` (liveness), ``/readyz`` (admission
  readiness + counters), and per-job progress streaming that reuses the
  watchdog progress vector (``repro.service.progress``).

All wall-clock usage here is host-side operational plumbing (drain
polls, HTTP timeouts, Retry-After); simulated time never touches it.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import signal
import threading
import time  # det: allow-file[wall-clock] daemon drain polls and HTTP timeouts are host-side by design
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional

# The job path (the runners and the simulator under them), imported
# here so the executor's slot workers inherit it when they fork
# instead of importing it on their first job.
import repro.harness.runners  # noqa: F401
from repro.errors import EXIT_OK, EXIT_PARTIAL, ConfigError
from repro.parallel.cache import RunCache, payload_to_result
from repro.parallel.executor import ParallelExecutor, RunPoint
from repro.parallel.supervisor import OutcomeJournal, SupervisionPolicy
from repro.resilience.bundles import read_bundle
from repro.service.jobs import Job, JobState, JobStore
from repro.service.progress import read_progress
from repro.service.queue import (
    BoundedJobQueue,
    QueueClosedError,
    QueueFullError,
)
from repro.service.schema import (
    PayloadError,
    build_payload_platform,
    parse_payload,
)

_log = logging.getLogger("repro.service")

#: Largest request body the daemon will read (a payload is ~300 bytes;
#: anything near this limit is abuse, not a simulation request).
MAX_BODY_BYTES = 64 * 1024

#: How often the progress stream emits a line while a job runs (host s).
STREAM_INTERVAL_S = 0.25


@dataclass
class ServiceConfig:
    """Operational knobs of one daemon instance.

    All durable state lives under ``state_dir`` (journal, run cache,
    quarantine bundles, progress spool) unless the individual paths are
    overridden — restarting against the same ``state_dir`` is what makes
    crash recovery work.
    """

    host: str = "127.0.0.1"
    port: int = 8421
    state_dir: str = "serve-state"
    queue_limit: int = 16
    retry_after_s: float = 1.0
    policy: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    progress_every_events: int = 4096
    journal_path: Optional[str] = None
    cache_dir: Optional[str] = None
    quarantine_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ConfigError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if not self.state_dir and not (self.journal_path and self.cache_dir
                                       and self.quarantine_dir):
            raise ConfigError("serve needs a state_dir (or explicit "
                              "journal/cache/quarantine paths)")

    def resolved_journal(self) -> str:
        return self.journal_path or os.path.join(self.state_dir,
                                                 "journal.jsonl")

    def resolved_cache_dir(self) -> str:
        return self.cache_dir or os.path.join(self.state_dir, "cache")

    def resolved_quarantine_dir(self) -> str:
        return self.quarantine_dir or os.path.join(self.state_dir,
                                                   "quarantine")

    def resolved_progress_dir(self) -> str:
        return os.path.join(self.state_dir or os.path.dirname(
            self.resolved_journal()), "progress")


def _headline(result: Any) -> dict[str, Any]:
    """The result summary a job answer carries (full data is cached)."""
    return {
        "label": result.label,
        "op": result.op.value,
        "size_bytes": result.size_bytes,
        "duration_cycles": result.duration_cycles,
        "num_npus": result.num_npus,
    }


class SimulationService:
    """Queue + supervisor + journal behind the HTTP front end.

    Usable without HTTP (the unit tests drive ``submit``/``run_job``
    directly); :class:`ServiceDaemon` adds the socket.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.journal = OutcomeJournal(config.resolved_journal(),
                                      exclusive=True)
        try:
            self.cache = RunCache(config.resolved_cache_dir())
            self.store = JobStore()
            self.queue = BoundedJobQueue(config.queue_limit,
                                         retry_after_s=config.retry_after_s)
            self.executor = ParallelExecutor(
                jobs=1, cache=self.cache, policy=config.policy,
                journal_path=self.journal.path,
                quarantine_dir=config.resolved_quarantine_dir())
            self._progress_dir = config.resolved_progress_dir()
            os.makedirs(self._progress_dir, exist_ok=True)
            self.started_at = time.time()
            self.draining = False
            self._worker: Optional[threading.Thread] = None
            self.resumed_jobs = 0
            self.replayed_done = 0
            self._replay_journal()
        except BaseException:
            self.journal.close()  # do not hold the lock on a failed boot
            raise

    # -- journal replay (crash recovery) ------------------------------------------

    def _replay_journal(self) -> None:
        """Rebuild the job table from a previous life's journal.

        ``"job"`` records re-register every admitted job under its
        original id; keys that already have an ``"outcome"`` record
        complete instantly (zero re-simulation), the rest re-enter the
        queue with ``force=True`` (they were admitted once already and
        must not be bounced by the restart-time limit).

        The executor's journal reader parses the file here, once; its
        first batch then reads only what was appended since.
        """
        reader = self.executor.journal
        assert reader is not None  # the executor was given our journal path
        records = reader.read()
        outcomes = reader.outcomes
        for record in records:
            if record.get("type") != "job":
                continue
            job_id, key = record.get("job_id"), record.get("key")
            if not job_id or not key:
                continue
            try:
                payload = parse_payload(record.get("payload") or {},
                                        lint=False)
            except PayloadError as exc:
                _log.warning("journal job %s has an unparseable payload "
                             "(%s); skipping it", job_id, exc)
                continue
            try:
                job = self.store.restore(job_id, payload, key,
                                         int(record.get("priority", 0)))
            except Exception as exc:
                _log.warning("journal job %s not restored: %s", job_id, exc)
                continue
            outcome = outcomes.get(key)
            if outcome is not None:
                self._finish_from_record(job, outcome)
                self.replayed_done += 1
            else:
                job.progress_path = self._progress_path(job.job_id)
                self.queue.put(job, priority=job.priority, force=True)
                self.resumed_jobs += 1

    def _finish_from_record(self, job: Job, record: dict[str, Any]) -> None:
        status = record.get("status")
        if status in ("ok", "retried") and record.get("payload"):
            self.store.finish(
                job, JobState.DONE,
                result=_headline(payload_to_result(record["payload"])),
                attempts=int(record.get("attempts", 0)), from_journal=True)
        else:
            self.store.finish(
                job, JobState.QUARANTINED,
                attempts=int(record.get("attempts", 0)),
                failure_class=record.get("failure_class"),
                error=record.get("error"), from_journal=True)

    # -- admission -----------------------------------------------------------------

    def submit(self, data: Any) -> tuple[Job, bool]:
        """Validate + admit one request; returns ``(job, deduplicated)``.

        Raises :class:`PayloadError` (→ 400), :class:`QueueFullError`
        (→ 429), or :class:`QueueClosedError` (→ 503).
        """
        payload = parse_payload(data)
        key = payload.content_key()
        job, deduped = self.store.submit(payload, key)
        if deduped:
            return job, True
        job.progress_path = self._progress_path(job.job_id)
        try:
            self.queue.put(job, priority=job.priority)
        except (QueueFullError, QueueClosedError):
            self.store.forget(job)
            raise
        # Journaled *after* admission: a job record with no outcome means
        # "accepted but unfinished", which is exactly what restart replay
        # re-enqueues.
        self.journal.append({
            "type": "job",
            "job_id": job.job_id,
            "key": key,
            "priority": job.priority,
            "payload": payload.canonical(),
        })
        return job, False

    def _progress_path(self, job_id: str) -> str:
        return os.path.join(self._progress_dir, f"{job_id}.json")

    # -- execution -----------------------------------------------------------------

    def run_job(self, job: Job) -> None:
        """Run one job through the supervised executor (worker thread).

        Every failure mode lands in a terminal job state; nothing a
        single payload does may take the worker loop down.
        """
        self.store.mark_running(job)
        point = RunPoint(
            builder=functools.partial(build_payload_platform,
                                      job.payload.canonical()),
            op=job.payload.op,
            size_bytes=job.payload.size_bytes,
            progress_path=job.progress_path,
            progress_every_events=self.config.progress_every_events,
        )
        try:
            outcome = self.executor.run_outcomes([point])[0]
        except Exception as exc:  # supervisor bug / on_poison="fail"
            _log.exception("job %s failed outside supervision", job.job_id)
            self.store.finish(job, JobState.QUARANTINED,
                              failure_class="error",
                              error=f"{type(exc).__name__}: {exc}")
            return
        if outcome.ok:
            self.store.finish(job, JobState.DONE,
                              result=_headline(outcome.result),
                              attempts=outcome.attempts,
                              from_cache=outcome.from_cache,
                              from_journal=outcome.from_journal)
        else:
            self.store.finish(job, JobState.QUARANTINED,
                              attempts=outcome.attempts,
                              failure_class=outcome.failure_class,
                              error=outcome.error,
                              bundle_path=outcome.bundle_path,
                              from_journal=outcome.from_journal)

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.get(timeout=0.2)
            if job is None:
                if self.queue.closed and not len(self.queue):
                    return
                continue
            self.run_job(job)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        if self._worker is not None:
            return
        self._worker = threading.Thread(target=self._worker_loop,
                                        name="serve-worker", daemon=True)
        self._worker.start()

    def drain(self) -> int:
        """Stop admissions, finish every queued job, release the journal.

        Returns the exit-code contract for the daemon's lifetime:
        ``EXIT_OK`` if every job completed, ``EXIT_PARTIAL`` if any was
        quarantined.
        """
        self.draining = True
        self.queue.close()
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        self.executor.close()
        self.journal.close()
        counts = self.store.counts()
        return EXIT_PARTIAL if counts["quarantined"] else EXIT_OK

    # -- introspection -------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        counts = self.store.counts()
        return {
            "jobs": counts,
            "queue": {"depth": len(self.queue),
                      "limit": self.queue.limit,
                      "closed": self.queue.closed},
            "cache": {"hits": self.cache.stats.hits,
                      "misses": self.cache.stats.misses,
                      "corrupt": self.cache.stats.corrupt},
            "resume": {"resumed_jobs": self.resumed_jobs,
                       "replayed_done": self.replayed_done},
            "simulations_run": self.executor.simulations_run,
            "draining": self.draining,
        }


# -- the HTTP front end -------------------------------------------------------------


class _ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the service reference."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: SimulationService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Headers and body go out as two writes; with Nagle on, the body
    #: waits for the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True
    server: _ServiceServer

    # -- plumbing -------------------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:
        _log.debug("%s - %s", self.address_string(), fmt % args)

    def _send_json(self, status: int, body: dict[str, Any],
                   headers: Optional[dict[str, str]] = None) -> None:
        data = (json.dumps(body, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    @property
    def service(self) -> SimulationService:
        return self.server.service

    # -- routes ---------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler contract)
        try:
            self._route_get()
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to salvage
        except Exception as exc:  # defensive: a handler bug is a 500, not a crash
            _log.exception("GET %s failed", self.path)
            self._best_effort_error(exc)

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._route_post()
        except BrokenPipeError:
            pass
        except Exception as exc:
            _log.exception("POST %s failed", self.path)
            self._best_effort_error(exc)

    def _best_effort_error(self, exc: Exception) -> None:
        try:
            self._send_json(500, {"error": "internal",
                                  "message": f"{type(exc).__name__}: {exc}"})
        except OSError:
            pass

    def _route_get(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif path == "/readyz":
            service = self.service
            if service.draining or service.queue.closed:
                self._send_json(503, {"status": "draining",
                                      **service.stats()})
            else:
                self._send_json(200, {"status": "ready", **service.stats()})
        elif path == "/v1/jobs":
            jobs = [job.to_dict(include_payload=False)
                    for job in self.service.store.jobs()]
            self._send_json(200, {"jobs": jobs})
        elif path.startswith("/v1/jobs/") and path.endswith("/progress"):
            self._stream_progress(path[len("/v1/jobs/"):-len("/progress")])
        elif path.startswith("/v1/jobs/"):
            job = self.service.store.get(path[len("/v1/jobs/"):])
            if job is None:
                self._send_json(404, {"error": "unknown-job"})
            else:
                body = job.to_dict()
                if job.bundle_path:
                    # A remote client cannot open the server-local
                    # bundle_path; inline the diagnostic bundle itself.
                    body["bundle"] = read_bundle(job.bundle_path)
                self._send_json(200, body)
        else:
            self._send_json(404, {"error": "unknown-path", "path": path})

    def _route_post(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/v1/jobs":
            self._send_json(404, {"error": "unknown-path", "path": path})
            return
        body = self._read_body()
        if body is None:
            return  # error already sent
        try:
            data = json.loads(body)
        except json.JSONDecodeError as exc:
            self._send_json(400, {"error": "invalid-json",
                                  "message": str(exc)})
            return
        try:
            job, deduped = self.service.submit(data)
        except PayloadError as exc:
            self._send_json(400, exc.to_dict())
            return
        except QueueFullError as exc:
            self._send_json(
                429, {"error": "queue-full", "limit": exc.limit,
                      "retry_after_s": exc.retry_after_s},
                headers={"Retry-After": f"{max(1, round(exc.retry_after_s))}"})
            return
        except QueueClosedError:
            self._send_json(503, {"error": "draining"})
            return
        self._send_json(202 if not job.terminal else 200, {
            "job_id": job.job_id,
            "key": job.key,
            "state": job.state.value,
            "deduplicated": deduped,
        })

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._send_json(411, {"error": "length-required"})
            return None
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(413, {"error": "payload-too-large",
                                  "limit_bytes": MAX_BODY_BYTES})
            return None
        return self.rfile.read(length)

    # -- progress streaming ----------------------------------------------------------

    def _stream_progress(self, job_id: str) -> None:
        """Chunked ndjson stream of a job's progress until it finishes.

        Each line carries the job state plus the latest watchdog
        progress-vector snapshot the worker spooled; the final line has
        the terminal state.  The stream reuses the daemon's existing
        machinery — it never touches the running simulation.
        """
        job = self.service.store.get(job_id)
        if job is None:
            self._send_json(404, {"error": "unknown-job"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        version = -1
        while True:
            terminal = job.terminal
            line = {
                "job_id": job.job_id,
                "state": job.state.value,
                "progress": read_progress(job.progress_path),
            }
            if terminal and job.result is not None:
                line["result"] = job.result
            if terminal and job.error is not None:
                line["error"] = job.error
            self._write_chunk(json.dumps(line, sort_keys=True) + "\n")
            if terminal:
                break
            version = self.service.store.wait_for_change(
                job, version, timeout=STREAM_INTERVAL_S)
        self._write_chunk("")

    def _write_chunk(self, text: str) -> None:
        data = text.encode()
        self.wfile.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
        self.wfile.flush()


class ServiceDaemon:
    """The bound HTTP server around a :class:`SimulationService`."""

    def __init__(self, config: ServiceConfig):
        self.service = SimulationService(config)
        try:
            self.httpd = _ServiceServer((config.host, config.port),
                                        self.service)
        except BaseException:
            self.service.journal.close()
            raise
        self._stop = threading.Event()
        self._http_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — authoritative when port 0 was asked."""
        return self.httpd.server_address[:2]

    def start(self) -> None:
        self.service.start()
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever, name="serve-http",
            kwargs={"poll_interval": 0.1}, daemon=True)
        self._http_thread.start()

    def request_stop(self, *_args: Any) -> None:
        """Signal-handler-safe stop request (SIGTERM/SIGINT)."""
        self._stop.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._stop.wait(timeout=timeout)

    def stop(self) -> int:
        """Graceful drain: close admissions, finish queued jobs, unbind."""
        self._stop.set()
        code = self.service.drain()
        self.httpd.shutdown()
        if self._http_thread is not None:
            self._http_thread.join()
            self._http_thread = None
        self.httpd.server_close()
        return code

    def serve_until_signal(self, ready: Optional[Callable[[], None]] = None) -> int:
        """CLI entry: serve until SIGTERM/SIGINT, then drain gracefully.

        ``ready`` runs once the signal handlers are installed and the
        service has started, so a client that acts on the readiness it
        announces can always stop the daemon gracefully.
        """
        signal.signal(signal.SIGTERM, self.request_stop)
        signal.signal(signal.SIGINT, self.request_stop)
        self.start()
        host, port = self.address
        _log.info("astra-repro serve listening on %s:%d", host, port)
        if ready is not None:
            ready()
        self.wait()
        return self.stop()
