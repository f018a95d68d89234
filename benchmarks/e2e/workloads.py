"""The five benchmark workloads, driven from outside the program.

Every operation runs in a fresh child interpreter, spawned one at a
time and never in parallel.  Set-up is timed from spawn to the child's
ready signal; the checks compare outputs with ``pins.json``.  A failed
check counts the operation as failed; it never stops the run.

CPU-bound children run on the vCPU the speed probe watches, and their
host times are recorded in reference seconds (see probe.py), each with
the slowdown it was corrected by, next to the raw wall times
(``wall_*``).  The service's daemon runs pinned only until it listens:
its request latencies are mostly timer waits, recorded as measured.

Only ``search_fig09`` and ``service_mixed`` consume the seed: it seeds
the search strategy and generates the service's payload mix.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from typing import Optional

from probe import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
PYTHON = sys.executable

#: Set-up measurements per run; extra set-up-only children top it up.
SETUP_SAMPLES = 5
#: A child that runs longer than this is killed and its operation fails.
CHILD_TIMEOUT_S = 150.0

_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


class ChildError(RuntimeError):
    """A child exited abnormally or broke the stdout protocol."""


class Child:
    """One child interpreter; stdout lines arrive with their read time.

    With a ``probe`` the child runs on the probed vCPU.
    """

    def __init__(self, argv: list[str], work_dir: str, probe: Optional[SpeedProbe] = None,
                 importtime: bool = False):
        if importtime:
            argv = [argv[0], "-X", "importtime", *argv[1:]]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        fd, self.stderr_path = tempfile.mkstemp(suffix=".stderr", dir=work_dir)
        self.started = time.perf_counter()
        with os.fdopen(fd, "w") as stderr:
            self.popen = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                                          text=True, cwd=ROOT, env=env)
        if probe is not None:
            probe.pin(self.popen.pid)
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.popen.kill)
        self._timer.start()

    def lines(self):
        for line in self.popen.stdout:
            yield time.perf_counter(), line

    def finish(self) -> tuple[float, float]:
        """Wait for exit; returns (wall seconds, peak RSS in MB).

        ``os.wait4`` reports this child's own peak RSS (and that of any
        descendant it waited for), which ``Popen.wait`` cannot.
        """
        for _ in self.popen.stdout:
            pass
        _pid, status, usage = os.wait4(self.popen.pid, 0)
        self.ended = time.perf_counter()
        self._timer.cancel()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.popen.stdout.close()
        return self.ended - self.started, usage.ru_maxrss / 1024.0

    def fail(self, what: str) -> ChildError:
        with open(self.stderr_path) as f:
            tail = "\n".join(f.read().splitlines()[-15:])
        return ChildError(f"{what} (exit {self.popen.returncode})\n{tail}")


def run_child(workload: str, params: dict, work_dir: str, probe: SpeedProbe,
              profile: Optional[str] = None, importtime: bool = False) -> dict:
    """Run one child.py repetition.

    Returns the child's outputs and counters, ``wall`` (set-up and each
    phase's seconds as measured), ``slowdown`` (the probe's slowdown over
    each of them), peak RSS and the stderr path (``-X importtime``
    output).
    """
    argv = [PYTHON, CHILD, workload, json.dumps(params)]
    if profile:
        argv += ["--profile", profile]
    child = Child(argv, work_dir, probe, importtime=importtime)
    lines = list(child.lines())
    _wall, rss_mb = child.finish()
    ready = result = None
    marks: list[tuple[str, float]] = []
    for when, line in lines:
        if line.startswith("E2E-READY"):
            ready = when
        elif line.startswith("E2E-PHASE "):
            marks.append((line.split()[1], when))
        elif line.startswith("E2E-RESULT "):
            result = json.loads(line[len("E2E-RESULT "):])
            marks.append(("", when))
    if child.popen.returncode != 0 or ready is None \
            or (result is None and not params.get("setup_only")):
        raise child.fail(f"{workload} child failed")
    out = result or {"times": {}}
    wall = {"setup_s": ready - child.started, **out.pop("times")}
    slowdown = {"setup_s": probe.slowdown(child.started, ready)}
    for (phase, start), (_next, end) in zip(marks, marks[1:]):
        slowdown[phase] = probe.slowdown(start, end)
    out.update(wall=wall, slowdown=slowdown, rss_mb=rss_mb, stderr_path=child.stderr_path)
    return out


def run_helper(name: str, params: dict, work_dir: str):
    """A child.py helper's answer; the runner itself never imports the
    simulator, so a child's peak RSS is never the runner's (a child's
    ``ru_maxrss`` starts at its parent's RSS)."""
    child = Child([PYTHON, CHILD, name, json.dumps(params)], work_dir)
    lines = [line for _, line in child.lines()]
    child.finish()
    if child.popen.returncode != 0 or not lines or not lines[-1].startswith("E2E-RESULT "):
        raise child.fail(f"{name} helper failed")
    return json.loads(lines[-1][len("E2E-RESULT "):])


def reference_seconds(result: dict, phase: str) -> float:
    return result["wall"][phase] / result["slowdown"][phase]


class Run:
    """Samples and check results of one workload run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Per-sample probe slowdowns of the host-time metrics.
        self.slowdowns: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, **values: float) -> None:
        for name, value in values.items():
            self.samples[name].append(float(value))

    def add_time(self, metric: str, wall: float, slowdown: float) -> None:
        """A host time, stored in reference seconds with its slowdown."""
        self.samples[metric].append(wall / slowdown)
        self.slowdowns[metric].append(slowdown)

    def operation(self, problems: list[str]) -> None:
        """Count one operation; it failed if any check reported a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, pinned {want!r}")


# -- workloads ----------------------------------------------------------------------


class Workload:
    """One workload: its operations, extra set-up samples and traced run."""

    name = ""
    #: Operations every untraced run performs, however long they take.
    min_ops = 1

    def __init__(self, scale: str, seed: int, pins: dict, work_dir: str, probe: SpeedProbe):
        self.scale = scale
        self.seed = seed
        self.pins = pins[self.name][scale]
        self.work_dir = work_dir
        self.probe = probe

    def op(self, run: Run) -> None:
        raise NotImplementedError

    def setup_sample(self, run: Run) -> None:
        raise NotImplementedError

    def trace(self, run: Run, profile_path: str) -> dict:
        """Untraced reference plus one traced operation; returns the
        per-layer inputs run.py turns into metrics."""
        raise NotImplementedError


class InProcessWorkload(Workload):
    """A workload whose operation is one child.py repetition."""

    #: Timed phases of the child besides run_s, recorded as samples.
    extra_phases: tuple = ()

    def params(self) -> dict:
        raise NotImplementedError

    def check(self, outputs: dict, counters: dict) -> list[str]:
        raise NotImplementedError

    def _child(self, **kwargs) -> dict:
        return run_child(self.name, self.params(), self.work_dir, self.probe, **kwargs)

    def _record(self, run: Run, result: dict) -> None:
        wall, slowdown = result["wall"], result["slowdown"]
        messages = result["counters"]["messages"] or result["outputs"]["messages"]
        for phase in ("setup_s", "run_s", *self.extra_phases):
            run.add_time(phase, wall[phase], slowdown[phase])
        run.add_time("us_per_msg", wall["run_s"] / messages * 1e6, slowdown["run_s"])
        run.add(peak_rss_mb=result["rss_mb"], wall_setup_s=wall["setup_s"],
                wall_run_s=wall["run_s"])
        run.operation(self.check(result["outputs"], result["counters"]))

    def op(self, run: Run) -> None:
        self._record(run, self._child())

    def setup_sample(self, run: Run) -> None:
        result = run_child(self.name, {**self.params(), "setup_only": True}, self.work_dir,
                           self.probe)
        run.add_time("setup_s", result["wall"]["setup_s"], result["slowdown"]["setup_s"])
        run.add(wall_setup_s=result["wall"]["setup_s"])

    def trace(self, run: Run, profile_path: str) -> dict:
        reference = self._child(importtime=True)
        self._record(run, reference)
        params = {**self.params(), "collect_systems": True}
        traced = run_child(self.name, params, self.work_dir, self.probe, profile=profile_path)
        run.operation(self.check(traced["outputs"], traced["counters"]))
        return {
            "overhead": (reference_seconds(traced, "run_s")
                         / reference_seconds(reference, "run_s")),
            "counters": traced["counters"],
            "outputs": {**reference["outputs"], "replay_s": (
                reference_seconds(reference, "replay_s") if self.extra_phases else 0.0)},
            "importtime_path": reference["stderr_path"],
        }


class TrainResnet50(InProcessWorkload):
    """Fig. 14 ResNet-50: one training iteration, 2x4x4 torus, fast backend."""

    name = "train_resnet50"
    min_ops = 2

    def params(self) -> dict:
        return {"shape": [2, 4, 4] if self.scale == "full" else [2, 2, 1]}

    def check(self, outputs: dict, counters: dict) -> list[str]:
        problems: list[str] = []
        expect(problems, "total cycles", outputs["cycles"], self.pins["cycles"])
        expect(problems, "messages", counters["messages"], self.pins["messages"])
        return problems


class AllreduceDetailed(InProcessWorkload):
    """A 1 MB all-reduce on 2x4x4 with the flit-level DetailedBackend."""

    name = "allreduce_detailed"
    min_ops = 2

    def params(self) -> dict:
        if self.scale == "full":
            return {"shape": [2, 4, 4], "splits": 4, "size_kb": 1024}
        return {"shape": [2, 2, 2], "splits": 4, "size_kb": 64}

    def check(self, outputs: dict, counters: dict) -> list[str]:
        problems: list[str] = []
        expect(problems, "duration cycles", outputs["cycles"], self.pins["cycles"])
        expect(problems, "messages", counters["messages"], self.pins["messages"])
        expect(problems, "flits", counters["flits"], self.pins["flits"])
        return problems


def search_inputs(seed: int, scale: str, work_dir: str) -> dict:
    """The search workload's inputs for ``seed`` (see child.search_inputs)."""
    if scale == "full":
        space, generation = "examples/configs/search_fig09.json", 4096
    else:
        space, generation = os.path.relpath(os.path.join(HERE, "search_smoke.json"), ROOT), 256
    return run_helper("search_inputs", {"space": space, "generation_size": generation,
                                        "seed": seed}, work_dir)


class SearchFig09(InProcessWorkload):
    """Random search over the Fig. 9 space into an empty run cache
    (run_s), then the same search against the warm cache (replay_s)."""

    name = "search_fig09"
    min_ops = 3
    extra_phases = ("replay_s",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.inputs = search_inputs(self.seed, self.scale, self.work_dir)

    def params(self) -> dict:
        cache_dir = tempfile.mkdtemp(prefix="search-cache-", dir=self.work_dir)
        return {**self.inputs, "cache_dir": cache_dir}

    def check(self, outputs: dict, counters: dict) -> list[str]:
        problems: list[str] = []
        for key in ("points", "best_label", "best_cycles", "messages"):
            expect(problems, key, outputs[key], self.pins[key])
        expect(problems, "cold simulations", outputs["simulations"], self.pins["points"])
        expect(problems, "warm-cache simulations", outputs["replay_simulations"], 0)
        expect(problems, "replay identical to the cold search", outputs["replay_identical"], True)
        expect(problems, "points below the bandwidth floor", outputs["below_floor"], 0)
        return problems


class CliCollective(Workload):
    """Cold ``astra-repro collective`` invocations (``python -m repro.cli``)."""

    name = "cli_collective"
    min_ops = 24
    ARGS = ["collective", "--shape", "2x2x2", "--op", "allreduce", "--size-mb", "1"]
    #: The same point as a service payload: its platform spec is the one
    #: the CLI builds for ARGS (the schema mirrors the CLI defaults).
    PAYLOAD = {"op": "allreduce", "size_mb": 1.0, "shape": [2, 2, 2]}

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._reference: Optional[dict] = None

    def reference(self, run: Run) -> dict:
        """The CLI's point run in-process once per run: checks the cycle
        pin at full precision and yields the message count and system
        counters the CLI does not print."""
        if self._reference is None:
            self._reference = run_child("cli_reference", {"payload": self.PAYLOAD},
                                        self.work_dir, self.probe)
            problems: list[str] = []
            expect(problems, "reference cycles", self._reference["outputs"]["cycles"],
                   self.pins["cycles"])
            expect(problems, "reference messages", self._reference["counters"]["messages"],
                   self.pins["messages"])
            run.operation(problems)
        return self._reference

    def invoke(self, run: Run, argv: list[str]) -> tuple[float, float, float]:
        """One checked CLI process: (wall seconds, slowdown, RSS MB)."""
        child = Child(argv, self.work_dir, self.probe)
        output = "".join(line for _, line in child.lines())
        wall, rss_mb = child.finish()
        problems: list[str] = []
        expect(problems, "exit code", child.popen.returncode, 0)
        if self.pins["printed"] not in output:
            problems.append(f"output lacks {self.pins['printed']!r}: {output.strip()[:200]!r}")
        run.operation(problems)
        return wall, self.probe.slowdown(child.started, child.ended), rss_mb

    def op(self, run: Run) -> None:
        messages = self.reference(run)["counters"]["messages"]
        wall, slowdown, rss_mb = self.invoke(run, [PYTHON, "-m", "repro.cli", *self.ARGS])
        run.add_time("run_s", wall, slowdown)
        run.add_time("us_per_msg", wall / messages * 1e6, slowdown)
        run.add(peak_rss_mb=rss_mb, wall_run_s=wall)

    def _import(self, importtime: bool = False) -> Child:
        child = Child([PYTHON, "-c", "import repro.cli"], self.work_dir, self.probe,
                      importtime=importtime)
        child.finish()
        if child.popen.returncode != 0:
            raise child.fail("import repro.cli failed")
        return child

    def setup_sample(self, run: Run) -> None:
        child = self._import()
        wall = child.ended - child.started
        run.add_time("setup_s", wall, self.probe.slowdown(child.started, child.ended))
        run.add(wall_setup_s=wall)

    def trace(self, run: Run, profile_path: str) -> dict:
        reference = self.reference(run)
        untraced = []
        for _ in range(3):
            wall, slowdown, _rss = self.invoke(run, [PYTHON, "-m", "repro.cli", *self.ARGS])
            untraced.append(wall / slowdown)
        wall, slowdown, _rss = self.invoke(run, [PYTHON, CHILD, "--cli", "--profile",
                                                 profile_path, "--", *self.ARGS])
        return {
            "overhead": wall / slowdown / statistics.median(untraced),
            "counters": reference["counters"],
            "outputs": {},
            "importtime_path": self._import(importtime=True).stderr_path,
        }


# -- service --------------------------------------------------------------------------

#: The payload mix: every (topology, shape) x op cell gets an equal share
#: of the distinct payloads, sizes stratified on a log scale over
#: 64 KB-1 MB within each cell, so any seed yields the same mix of work
#: in a different order with different exact sizes.
SERVICE_TOPOLOGIES = (("Torus", (2, 2, 2)), ("Torus", (2, 2, 4)), ("AllToAll", (2, 4)))
SERVICE_OPS = ("allreduce", "allgather", "reducescatter", "alltoall")
#: Share of submissions that repeat an earlier payload exactly.
REPEAT_FRAC = 0.25


def cell_name(payload: dict) -> str:
    shape = "x".join(str(d) for d in payload["shape"])
    return f"{payload['op']}/{payload['topology']}/{shape}"


def service_payloads(seed: int, count: int) -> list[dict]:
    """``count`` seeded payloads; a quarter repeat an earlier one."""
    rng = random.Random(seed)
    repeats = round(count * REPEAT_FRAC)
    distinct = count - repeats
    cells = [(topo, shape, op) for topo, shape in SERVICE_TOPOLOGIES for op in SERVICE_OPS]
    seen = set()
    unique: list[dict] = []
    for i, (topo, shape, op) in enumerate(cells):
        k = distinct // len(cells) + (1 if i < distinct % len(cells) else 0)
        for j in range(k):
            size_kb = round(2 ** rng.uniform(16 + 4 * j / k, 16 + 4 * (j + 1) / k) / 1024)
            while (i, size_kb) in seen:
                size_kb += 1
            seen.add((i, size_kb))
            unique.append({"op": op, "size_mb": size_kb / 1024, "topology": topo,
                           "shape": list(shape)})
    rng.shuffle(unique)
    for _ in range(repeats):
        source = rng.randrange(len(unique))
        unique.insert(rng.randint(source + 1, len(unique)), dict(unique[source]))
    return unique


class Daemon:
    """An ``astra-repro serve`` child with a one-connection HTTP client.

    The daemon boots on the probed vCPU, so its set-up is measured like
    every other; once it listens it may use every CPU again (its threads
    and worker processes start after that line).
    """

    def __init__(self, argv_prefix: list[str], work_dir: str, probe: SpeedProbe,
                 importtime: bool = False):
        self.state_dir = tempfile.mkdtemp(prefix="serve-state-", dir=work_dir)
        self.child = Child([*argv_prefix, "serve", "--port", "0", "--state-dir",
                            self.state_dir], work_dir, probe, importtime=importtime)
        lines = self.child.lines()
        port = None
        for when, line in lines:
            match = _LISTEN_RE.search(line)
            if match:
                self.setup_wall = when - self.child.started
                self.setup_slowdown = probe.slowdown(self.child.started, when)
                port = int(match.group(2))
                break
        if port is None:
            self.child.finish()
            raise self.child.fail("daemon exited before listening")
        probe.pin(self.child.popen.pid, os.sched_getaffinity(0))
        self._drain = threading.Thread(target=lambda: [None for _ in lines], daemon=True)
        self._drain.start()
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT_S)

    def request(self, method: str, path: str, body: Optional[dict] = None):
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read().decode()

    def stop(self) -> tuple[int, float]:
        """SIGTERM (graceful drain); returns (exit code, peak RSS MB)."""
        self.conn.close()
        self.child.popen.send_signal(signal.SIGTERM)
        _wall, rss_mb = self.child.finish()
        self._drain.join()
        return self.child.popen.returncode, rss_mb


class ServiceMixed(Workload):
    """One daemon, one closed-loop client on one connection, seeded payloads."""

    name = "service_mixed"
    #: Payloads traced: enough for stable shares at a third of the cost.
    TRACED_PAYLOADS = 50

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.payloads = service_payloads(self.seed, 200 if self.scale == "full" else 12)
        self.floors = run_helper("floors", {"payloads": self.payloads}, self.work_dir)

    def batch(self, run: Run, daemon: Daemon, payloads: list[dict]) -> dict:
        """Submit each payload, await its result on the progress stream,
        then check every job; returns per-job timings and daemon stats."""
        jobs = []
        start = time.perf_counter()
        for payload in payloads:
            sent = time.perf_counter()
            status, body = daemon.request("POST", "/v1/jobs", payload)
            job = {"payload": payload, "status": status, "admit_s": time.perf_counter() - sent}
            if status in (200, 202):
                job.update(json.loads(body))
                _, body = daemon.request("GET", f"/v1/jobs/{job['job_id']}/progress")
                job["final"] = json.loads(body.strip().splitlines()[-1])
            job["latency_s"] = time.perf_counter() - sent
            job["seen_at"] = time.time()
            jobs.append(job)
        wall = time.perf_counter() - start
        _, listing = daemon.request("GET", "/v1/jobs")
        _, ready = daemon.request("GET", "/readyz")
        return {"jobs": jobs, "records": {r["job_id"]: r for r in json.loads(listing)["jobs"]},
                "ready": json.loads(ready), "wall_s": wall,
                "messages": self.check(run, daemon, jobs)}

    def check(self, run: Run, daemon: Daemon, jobs: list[dict]) -> int:
        """Per-job checks; returns the messages the daemon simulated."""
        first: dict[str, dict] = {}
        messages = 0
        for job in jobs:
            problems: list[str] = []
            final = job.get("final") or {}
            result = final.get("result")
            label = json.dumps(job["payload"], sort_keys=True)
            expect(problems, f"{label} HTTP status", job["status"] in (200, 202), True)
            expect(problems, f"{label} state", final.get("state"), "done")
            if result is not None:
                floor = self.floors[label]
                if not result["duration_cycles"] >= floor:
                    problems.append(f"{label}: {result['duration_cycles']} cycles is below "
                                    f"the bandwidth floor {floor}")
                if label in first:
                    expect(problems, f"{label} repeat result", result, first[label])
                else:
                    first[label] = result
                    path = os.path.join(daemon.state_dir, "cache", f"{job['key']}.json")
                    with open(path) as f:
                        entry = json.load(f)
                    count = sum(p["messages"] for p in entry["breakdown"]["phase_stats"].values())
                    expect(problems, f"{label} messages", count,
                           self.pins["messages_per_cell"][cell_name(job["payload"])])
                    messages += count
            run.operation(problems)
        return messages

    def op(self, run: Run) -> None:
        daemon = Daemon([PYTHON, "-m", "repro.cli"], self.work_dir, self.probe)
        try:
            batch = self.batch(run, daemon, self.payloads)
        finally:
            code, rss_mb = daemon.stop()
        run.operation([] if code == 0 else [f"daemon exit code {code}"])
        run.add_time("setup_s", daemon.setup_wall, daemon.setup_slowdown)
        run.add(peak_rss_mb=rss_mb, wall_setup_s=daemon.setup_wall,
                us_per_msg=batch["wall_s"] / batch["messages"] * 1e6)
        run.samples["run_s"].extend(job["latency_s"] for job in batch["jobs"])

    def setup_sample(self, run: Run) -> None:
        daemon = Daemon([PYTHON, "-m", "repro.cli"], self.work_dir, self.probe)
        code, _rss = daemon.stop()
        if code != 0:
            raise daemon.child.fail("daemon drain failed")
        run.add_time("setup_s", daemon.setup_wall, daemon.setup_slowdown)
        run.add(wall_setup_s=daemon.setup_wall)

    def trace(self, run: Run, profile_path: str) -> dict:
        untraced = Daemon([PYTHON, "-m", "repro.cli"], self.work_dir, self.probe,
                          importtime=True)
        try:
            reference = self.batch(run, untraced, self.payloads)
        finally:
            untraced.stop()
        payloads = self.payloads[:self.TRACED_PAYLOADS]
        traced_daemon = Daemon([PYTHON, CHILD, "--cli", "--profile", profile_path, "--"],
                               self.work_dir, self.probe)
        try:
            traced = self.batch(run, traced_daemon, payloads)
        finally:
            traced_daemon.stop()
        latencies = [job["latency_s"] for job in reference["jobs"]]
        return {
            "overhead": (statistics.median(job["latency_s"] for job in traced["jobs"])
                         / statistics.median(latencies[:len(payloads)])),
            "counters": {},
            "outputs": {"service": service_breakdown(reference), "ready": reference["ready"]},
            "importtime_path": untraced.child.stderr_path,
        }


def service_breakdown(batch: dict) -> dict:
    """Where a job's latency goes, from the daemon's own job records."""
    admit, queue, execute, notify = [], [], [], []
    from_cache = 0
    for job in batch["jobs"]:
        record = batch["records"].get(job.get("job_id"))
        if not record or record.get("finished_at") is None:
            continue
        started = record["started_at"] or record["submitted_at"]
        admit.append(job["admit_s"])
        queue.append(started - record["submitted_at"])
        execute.append(record["finished_at"] - started)
        notify.append(max(0.0, job["seen_at"] - record["finished_at"]))
        from_cache += bool(record.get("from_cache") or record.get("from_journal"))
    latencies = [job["latency_s"] for job in batch["jobs"]]
    return {
        "admit_ms": statistics.median(admit) * 1e3,
        "queue_wait_ms": statistics.median(queue) * 1e3,
        "exec_ms": statistics.median(execute) * 1e3,
        "notify_ms": statistics.median(notify) * 1e3,
        "from_cache_frac": from_cache / len(batch["jobs"]),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
    }


WORKLOADS = {cls.name: cls for cls in (TrainResnet50, AllreduceDetailed, SearchFig09,
                                       CliCollective, ServiceMixed)}
