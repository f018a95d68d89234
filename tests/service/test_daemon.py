"""SimulationService + ServiceDaemon: admission, execution, recovery.

The crash-recovery acceptance contract lives here: a daemon killed with
jobs queued and in-flight restarts against the same state directory,
completes every job bit-identically, and re-simulates nothing that had
already completed.
"""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import EXIT_OK, EXIT_PARTIAL, ConfigError
from repro.parallel.supervisor import SupervisionPolicy
from repro.service import daemon as daemon_module
from repro.service.daemon import ServiceConfig, ServiceDaemon, SimulationService
from repro.service.jobs import JobState, JobStore
from repro.service.queue import QueueFullError
from repro.service.schema import PayloadError, parse_payload

#: A tiny-but-real payload: 2x2x2 torus, 64 KB allreduce, 4 chunks.
PAYLOAD = {"op": "allreduce", "size_mb": 0.0625, "shape": "2x2x2",
           "preferred_set_splits": 4}

DEADLINE_S = 60.0


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(host="127.0.0.1", port=0,
                    state_dir=str(tmp_path / "state"), queue_limit=8)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _drain_all(service: SimulationService) -> None:
    """Run every queued job inline (no worker thread: deterministic)."""
    while True:
        job = service.queue.get(timeout=0.01)
        if job is None:
            return
        service.run_job(job)


class TestJobStore:
    def test_ids_are_sequential_and_key_tagged(self):
        store = JobStore()
        payload = parse_payload(PAYLOAD)
        key = payload.content_key()
        job1, _ = store.submit(payload, key)
        store.finish(job1, JobState.DONE)
        job2, _ = store.submit(payload, key)
        assert job1.job_id.startswith("job-000001-")
        assert job2.job_id.startswith("job-000002-")
        assert key[:12] in job1.job_id

    def test_restore_keeps_fresh_ids_ahead(self):
        store = JobStore()
        payload = parse_payload(PAYLOAD)
        restored = store.restore("job-000007-abc", payload, "k1", 0)
        store.finish(restored, JobState.DONE)
        fresh, _ = store.submit(payload, payload.content_key())
        assert int(fresh.job_id.split("-")[1]) > 7

    def test_forget_rolls_back_admission(self):
        store = JobStore()
        payload = parse_payload(PAYLOAD)
        job, _ = store.submit(payload, "k")
        store.forget(job)
        assert store.get(job.job_id) is None
        again, deduped = store.submit(payload, "k")
        assert not deduped  # the forgotten job no longer coalesces

    def test_wait_for_change_times_out(self):
        store = JobStore()
        job, _ = store.submit(parse_payload(PAYLOAD), "k")
        start = time.monotonic()
        assert store.wait_for_change(job, job.version, timeout=0.05) == 0
        assert time.monotonic() - start < 5.0


class TestAdmission:
    def test_submit_validates_before_queueing(self, tmp_path):
        service = SimulationService(_config(tmp_path))
        try:
            with pytest.raises(PayloadError):
                service.submit({"op": "bogus", "size_mb": 1})
            assert len(service.queue) == 0
            assert service.store.counts()["total"] == 0
        finally:
            service.drain()

    def test_queue_full_rolls_back_and_surfaces_429_material(self, tmp_path):
        service = SimulationService(_config(tmp_path, queue_limit=1))
        try:
            service.submit(PAYLOAD)
            with pytest.raises(QueueFullError):
                service.submit({**PAYLOAD, "size_mb": 0.125})
            # The bounced job left no trace: admission rolled back.
            assert service.store.counts()["total"] == 1
            assert len(service.queue) == 1
        finally:
            service.drain()

    def test_identical_inflight_payloads_coalesce(self, tmp_path):
        service = SimulationService(_config(tmp_path))
        try:
            job1, deduped1 = service.submit(PAYLOAD)
            job2, deduped2 = service.submit(dict(PAYLOAD))
            assert not deduped1 and deduped2
            assert job1.job_id == job2.job_id
            assert job1.deduped_hits == 1
            assert len(service.queue) == 1  # one simulation serves both
            # A different payload does not coalesce.
            other, deduped3 = service.submit({**PAYLOAD, "size_mb": 0.125})
            assert not deduped3 and other.job_id != job1.job_id
        finally:
            service.drain()

    def test_completed_key_does_not_coalesce_but_replays(self, tmp_path):
        service = SimulationService(_config(tmp_path))
        try:
            job1, _ = service.submit(PAYLOAD)
            _drain_all(service)
            assert job1.state is JobState.DONE
            job2, deduped = service.submit(dict(PAYLOAD))
            assert not deduped and job2.job_id != job1.job_id
            sims_before = service.executor.simulations_run
            _drain_all(service)
            assert job2.state is JobState.DONE
            # Zero re-simulation: the journal/cache replayed the result.
            assert service.executor.simulations_run == sims_before
            assert job2.result == job1.result
        finally:
            service.drain()

    def test_draining_service_refuses_submissions(self, tmp_path):
        from repro.service.queue import QueueClosedError

        service = SimulationService(_config(tmp_path))
        assert service.drain() == EXIT_OK
        with pytest.raises(QueueClosedError):
            service.submit(PAYLOAD)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            _config(tmp_path, queue_limit=0)
        with pytest.raises(ConfigError):
            ServiceConfig(state_dir="")


class TestExecution:
    def test_job_completes_with_result_headline(self, tmp_path):
        service = SimulationService(_config(tmp_path))
        try:
            job, _ = service.submit(PAYLOAD)
            _drain_all(service)
            assert job.state is JobState.DONE
            assert job.result["duration_cycles"] > 0
            assert job.result["num_npus"] == 8
            assert job.result["op"] == "allreduce"
            assert job.attempts == 1
        finally:
            service.drain()

    def test_poison_job_quarantined_daemon_keeps_serving(self, tmp_path):
        """A payload that blows its event budget lands in quarantine
        with a diagnostic bundle; the next client is unaffected."""
        policy = SupervisionPolicy(point_event_budget=20, max_retries=0)
        service = SimulationService(_config(tmp_path, policy=policy))
        try:
            poison, _ = service.submit(PAYLOAD)
            _drain_all(service)
            assert poison.state is JobState.QUARANTINED
            assert poison.failure_class == "event-budget"
            assert poison.error
            assert poison.bundle_path and "poison" in poison.bundle_path
            with open(poison.bundle_path) as f:
                bundle = json.load(f)
            assert bundle["kind"] == "poison-point"
        finally:
            assert service.drain() == EXIT_PARTIAL


class TestCrashRecovery:
    def test_acceptance_sigkill_restart_zero_resimulation(self, tmp_path):
        """The ISSUE acceptance contract, in-process: kill a daemon with
        one job completed and two still queued; the restart completes
        everything, and a second restart re-simulates nothing at all."""
        config = _config(tmp_path)
        first = SimulationService(config)
        done_job, _ = first.submit(PAYLOAD)
        first.run_job(first.queue.get(timeout=1.0))
        assert done_job.state is JobState.DONE
        queued_a, _ = first.submit({**PAYLOAD, "size_mb": 0.125})
        queued_b, _ = first.submit({**PAYLOAD, "size_mb": 0.25,
                                    "priority": 5})
        # Simulated SIGKILL: no drain, no journal close, lock left behind
        # (the restart reclaims it because the "owner" shows as our own
        # dead... er, same-pid process; the cross-process liveness path
        # is covered in tests/parallel/test_supervisor.py).
        first.executor.close()

        second = SimulationService(_config(tmp_path))
        try:
            assert second.replayed_done == 1
            assert second.resumed_jobs == 2
            replayed = second.store.get(done_job.job_id)
            assert replayed.state is JobState.DONE
            assert replayed.from_journal
            assert replayed.result == done_job.result  # bit-identical
            assert second.executor.simulations_run == 0
            # Priority survives the journal: the resumed high-priority
            # job drains first.
            assert [j.job_id for j in second.queue.snapshot()] == \
                [queued_b.job_id, queued_a.job_id]
            _drain_all(second)
            assert second.executor.simulations_run == 2  # only the unrun
            for job_id in (queued_a.job_id, queued_b.job_id):
                assert second.store.get(job_id).state is JobState.DONE
        finally:
            second.drain()

        # Third life: EVERYTHING replays, zero simulations.
        third = SimulationService(_config(tmp_path))
        try:
            assert third.replayed_done == 3
            assert third.resumed_jobs == 0
            assert third.executor.simulations_run == 0
            assert (third.store.get(queued_b.job_id).result
                    == second.store.get(queued_b.job_id).result)
        finally:
            assert third.drain() == EXIT_OK

    def test_resumed_jobs_bypass_a_smaller_restart_limit(self, tmp_path):
        first = SimulationService(_config(tmp_path, queue_limit=8))
        for i in range(4):
            first.submit({**PAYLOAD, "size_mb": 0.0625 * (i + 1)})
        first.executor.close()  # simulated kill

        second = SimulationService(_config(tmp_path, queue_limit=2))
        try:
            assert second.resumed_jobs == 4  # force=True admitted all
            assert len(second.queue) == 4
        finally:
            second.drain()

    def test_quarantined_outcome_replays_without_rerun(self, tmp_path):
        policy = SupervisionPolicy(point_event_budget=20, max_retries=0)
        first = SimulationService(_config(tmp_path, policy=policy))
        poison, _ = first.submit(PAYLOAD)
        _drain_all(first)
        assert poison.state is JobState.QUARANTINED
        first.drain()

        second = SimulationService(_config(tmp_path, policy=policy))
        try:
            replayed = second.store.get(poison.job_id)
            assert replayed.state is JobState.QUARANTINED
            assert replayed.failure_class == "event-budget"
            assert second.executor.simulations_run == 0
        finally:
            second.drain()


class _Client:
    """Tiny urllib client against a bound ServiceDaemon."""

    def __init__(self, address):
        host, port = address
        self.base = f"http://{host}:{port}"

    def get(self, path):
        try:
            with urllib.request.urlopen(f"{self.base}{path}") as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def post(self, path, body, raw=False):
        data = body if raw else json.dumps(body).encode()
        req = urllib.request.Request(f"{self.base}{path}", data=data)
        try:
            with urllib.request.urlopen(req) as r:
                return r.status, json.loads(r.read()), r.headers
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read()), e.headers


@pytest.fixture()
def daemon(tmp_path):
    d = ServiceDaemon(_config(tmp_path))
    d.start()
    yield d
    d.stop()


class TestHTTP:
    def test_health_and_readiness(self, daemon):
        client = _Client(daemon.address)
        assert client.get("/healthz") == (200, {"status": "ok"})
        status, body = client.get("/readyz")
        assert status == 200 and body["status"] == "ready"
        assert body["queue"]["limit"] == 8

    def test_accepted_connections_disable_nagle(self, daemon, monkeypatch):
        """Headers and body are two writes; with Nagle on, the body would
        wait for the client's delayed ACK (~40 ms per response)."""
        nodelay = []
        setup = daemon_module._Handler.setup

        def spy(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(daemon_module._Handler, "setup", spy)
        assert _Client(daemon.address).get("/healthz")[0] == 200
        assert nodelay and all(nodelay)

    def test_malformed_json_is_400(self, daemon):
        status, body, _ = _Client(daemon.address).post(
            "/v1/jobs", b"{not json", raw=True)
        assert status == 400
        assert body["error"] == "invalid-json"

    def test_invalid_payload_is_structured_400(self, daemon):
        status, body, _ = _Client(daemon.address).post(
            "/v1/jobs", {"op": "bogus", "size_mb": -1})
        assert status == 400
        assert body["error"] == "invalid-payload"
        assert {e["field"] for e in body["errors"]} >= {"op", "size_mb"}

    def test_single_npu_shape_is_400(self, daemon):
        status, body, _ = _Client(daemon.address).post(
            "/v1/jobs", {"op": "allreduce", "size_mb": 0.0625, "shape": "1x1x1"})
        assert status == 400
        assert [e["code"] for e in body["errors"]] == ["platform-construction"]

    def test_unknown_routes_are_404(self, daemon):
        client = _Client(daemon.address)
        assert client.get("/nope")[0] == 404
        assert client.get("/v1/jobs/job-999999-missing")[0] == 404
        assert client.post("/v1/nope", {})[0] == 404

    def test_submit_poll_complete(self, daemon):
        client = _Client(daemon.address)
        status, body, _ = client.post("/v1/jobs", PAYLOAD)
        assert status == 202
        job_id = body["job_id"]
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            status, job = client.get(f"/v1/jobs/{job_id}")
            if job["state"] in ("done", "quarantined"):
                break
            time.sleep(0.05)
        assert job["state"] == "done"
        assert job["result"]["duration_cycles"] > 0
        status, listing = client.get("/v1/jobs")
        assert [j["job_id"] for j in listing["jobs"]] == [job_id]

    def test_progress_stream_ends_with_terminal_state(self, daemon):
        client = _Client(daemon.address)
        _, body, _ = client.post("/v1/jobs", PAYLOAD)
        url = f"{client.base}/v1/jobs/{body['job_id']}/progress"
        lines = []
        with urllib.request.urlopen(url, timeout=DEADLINE_S) as response:
            for raw in response:
                lines.append(json.loads(raw))
                if lines[-1]["state"] in ("done", "quarantined"):
                    break
        assert lines[-1]["state"] == "done"
        assert lines[-1]["result"]["duration_cycles"] > 0

    def test_duplicate_submit_reports_deduplicated(self, tmp_path):
        # No worker: the first job stays in-flight while we resubmit.
        daemon = ServiceDaemon(_config(tmp_path))
        import threading

        thread = threading.Thread(target=daemon.httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            client = _Client(daemon.address)
            _, first, _ = client.post("/v1/jobs", PAYLOAD)
            _, second, _ = client.post("/v1/jobs", PAYLOAD)
            assert not first["deduplicated"]
            assert second["deduplicated"]
            assert second["job_id"] == first["job_id"]
        finally:
            daemon.httpd.shutdown()
            daemon.httpd.server_close()
            daemon.service.drain()

    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        daemon = ServiceDaemon(_config(tmp_path, queue_limit=1,
                                       retry_after_s=3.0))
        import threading

        thread = threading.Thread(target=daemon.httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            client = _Client(daemon.address)
            status, _, _ = client.post("/v1/jobs", PAYLOAD)
            assert status == 202
            status, body, headers = client.post(
                "/v1/jobs", {**PAYLOAD, "size_mb": 0.125})
            assert status == 429
            assert body["error"] == "queue-full"
            assert headers["Retry-After"] == "3"
            # Health stays green under backpressure.
            assert client.get("/healthz")[0] == 200
        finally:
            daemon.httpd.shutdown()
            daemon.httpd.server_close()
            daemon.service.drain()

    def test_quarantined_job_response_inlines_bundle(self, tmp_path):
        policy = SupervisionPolicy(point_event_budget=20, max_retries=0)
        daemon = ServiceDaemon(_config(tmp_path, policy=policy))
        daemon.start()
        try:
            client = _Client(daemon.address)
            _, body, _ = client.post("/v1/jobs", PAYLOAD)
            deadline = time.monotonic() + DEADLINE_S
            while time.monotonic() < deadline:
                status, job = client.get(f"/v1/jobs/{body['job_id']}")
                if job["state"] in ("done", "quarantined"):
                    break
                time.sleep(0.05)
            assert job["state"] == "quarantined"
            assert job["failure_class"] == "event-budget"
            # The client gets the diagnostic bundle itself, not just a
            # server-local path it cannot open.
            assert job["bundle"]["kind"] == "poison-point"
        finally:
            daemon.stop()

    def test_graceful_stop_drains_queued_jobs(self, tmp_path):
        daemon = ServiceDaemon(_config(tmp_path))
        daemon.start()
        client = _Client(daemon.address)
        _, body, _ = client.post("/v1/jobs", PAYLOAD)
        code = daemon.stop()  # SIGTERM path: drain, then unbind
        assert code == EXIT_OK
        job = daemon.service.store.get(body["job_id"])
        assert job.state is JobState.DONE
