"""The serving workloads: ``serve_inproc`` and ``serve_fleet``.

Both serve the float32 end model that ``Controller.run`` exports for fmd
5-shot (split seed 0) on the small workspace.  Exporting it is preparation,
cached under ``.bench_build/perfbench/artifacts`` by a digest of ``src/``,
and never counted in ``setup_s``.  Requests are single fmd feature rows
sampled from the synthetic world with the workload seed; their true class
is known, so the served predictions' accuracy is measured.

* ``serve_inproc`` drives open-loop Poisson arrivals from one thread into
  ``Server.submit`` with the default ``BatchingConfig``.  One request in
  four repeats a row from the last 256 requests, which is still inside the
  default 1024-entry prediction cache.
* ``serve_fleet`` starts ``python -m repro.serve ART --fleet 2 --port 0``
  and sends JSON ``POST /predict`` from at most ``nproc`` client
  connections; every row is distinct.

Every request is timed from its due time.  An untraced run reports the
median latency at the low rate, sampled in chunks between overload bursts
whose median completion rate is the throughput.  A traced run reports the
p99 at the low and high rates and climbs a geometric rate ladder to the
highest rate whose tail stays within the limit without a growing backlog.
That ladder rate is a per-layer figure, not an end-to-end one: on a shared
2-CPU host, stalls of 20-130 ms decide which rung fails, and its spread
across runs (0.14-0.56 of the median) is wider than the 0.25 regression
bound the timing metrics carry in BENCHMARK.json.

The fleet's rates are 50 and 150 req/s, and its ladder holds p95 rather
than p99, because at 25 req/s the thousand requests a p99 needs take 40 s.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import Controller, ControllerConfig, Task
from repro.serve import BatchingConfig, Server, load_servable
from repro.workspace import build_workspace

import harness
from harness import (LoadResult, Outcome, Rung, Tracer, climb_ladder, judge,
                     median, peak_rss_mib, percentile, poisson_schedule,
                     run_open_loop, run_open_loop_blocking, samples_needed)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACTS = os.path.join(ROOT, ".bench_build", "perfbench", "artifacts")
DATASET = "fmd"
#: rows per forward of the default batching config; probes are compared
#: with offline inference at this quantum
QUANTUM = BatchingConfig().max_batch_size
P99_SAMPLES = samples_needed(99)


@dataclass(frozen=True)
class Profile:
    lo_rate: float
    hi_rate: float
    #: latency limit on the ladder's percentile
    limit_ms: float
    #: share of requests that repeat one of the last ``repeat_window`` rows
    repeat_share: float
    repeat_window: int
    #: share of ``--seconds`` spent at the low rate in an untraced run
    lo_share: float
    #: overload bursts: requests all due within ``burst_s`` seconds, far
    #: faster than the server completes them; throughput is the median of
    #: ``bursts`` completion rates
    burst_requests: int
    burst_s: float
    bursts: int
    #: percentile the ladder holds to ``limit_ms``; each rung sends enough
    #: requests to leave ten beyond it, and at least ``rung_s`` of arrivals
    ladder_q: float
    rung_s: float
    #: first rung; ``None`` starts at 75% of ``clients / p50`` at the low rate
    ladder_start: Optional[float]
    ladder_ratio: float
    refinements: int
    #: set-ups per run (setup_s is their median)
    setups: int


PROFILES = {
    "serve_inproc": Profile(lo_rate=1000.0, hi_rate=4000.0, limit_ms=20.0,
                            repeat_share=0.25, repeat_window=256,
                            lo_share=0.5, burst_requests=10000, burst_s=0.2,
                            bursts=5, ladder_q=99.0, rung_s=0.3,
                            ladder_start=4000.0, ladder_ratio=1.1,
                            refinements=1, setups=9),
    "serve_fleet": Profile(lo_rate=50.0, hi_rate=150.0, limit_ms=100.0,
                           repeat_share=0.0, repeat_window=0,
                           lo_share=0.8, burst_requests=300, burst_s=0.1,
                           bursts=4, ladder_q=95.0, rung_s=1.0,
                           ladder_start=None, ladder_ratio=1.1,
                           refinements=1, setups=2),
}
#: requests of every set-up's warm-up, and probe rows checked bit for bit
WARM_ROWS = 16
PROBE_ROWS = 64
#: sample the queue depth at every n-th request of a traced phase
QUEUE_SAMPLE_EVERY = {"serve_inproc": 4, "serve_fleet": 10}


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def _source_digest() -> str:
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(source):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, source).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def prepare_artifact(workspace) -> str:
    """Export the fmd end model once per source tree; return its path."""
    path = os.path.join(ARTIFACTS, f"{DATASET}-5shot-{_source_digest()}")
    if os.path.isdir(path):
        return path
    split = workspace.make_task_split(DATASET, shots=5, split_seed=0)
    task = Task.from_split(split, scads=workspace.scads,
                           backbone=workspace.backbone("resnet50"))
    result = Controller(config=ControllerConfig(dtype="float32")).run(task)
    staging = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(ARTIFACTS, exist_ok=True)
    Controller().export(result, staging, task=task)
    os.rename(staging, path)
    return path


class RowSource:
    """Sequential, seeded request rows of fmd classes with their labels."""

    def __init__(self, workspace, seed: int, profile: Profile):
        self.rng = np.random.default_rng(seed)
        dataset = workspace.dataset(DATASET)
        self.world = workspace.world
        self.concepts = [spec.concept for spec in dataset.classes]
        self.domain = dataset.domain
        self.profile = profile

    def draw(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        rng = self.rng
        labels = rng.integers(0, len(self.concepts), size=count)
        rows = np.empty((count, self.world.image_dim), dtype=np.float32)
        for label, concept in enumerate(self.concepts):
            chosen = np.flatnonzero(labels == label)
            rows[chosen] = self.world.sample_images(
                concept, len(chosen), domain=self.domain, rng=rng, noise=0.5)
        window = self.profile.repeat_window
        if self.profile.repeat_share > 0:
            for index in np.flatnonzero(rng.random(count)
                                        < self.profile.repeat_share):
                if index == 0:
                    continue
                source = index - int(rng.integers(1, min(index, window) + 1))
                rows[index] = rows[source]
                labels[index] = labels[source]
        return rows, labels


@dataclass
class Phase:
    name: str
    result: LoadResult
    labels: np.ndarray
    predicted: np.ndarray

    def correct(self) -> int:
        return int(((self.predicted == self.labels) & self.result.ok).sum())


# --------------------------------------------------------------------------- #
# In-process serving
# --------------------------------------------------------------------------- #
class InProcTarget:
    """One ``Server`` over a freshly loaded servable."""

    def __init__(self, artifact: str, warm_rows: np.ndarray,
                 tracer: Optional[Tracer] = None):
        start = time.perf_counter()
        self.servable = load_servable(artifact)
        if tracer is not None:
            # The batcher binds predict_proba when it is created, so the
            # forward is wrapped on this instance before the first request.
            self.servable.predict_proba = tracer.wrap(
                "serve.artifact.forward", self.servable.predict_proba)
        self.server = Server()
        self.server.register("default", self.servable)
        for future in [self.server.submit(row) for row in warm_rows]:
            future.result(timeout=30)
        self.setup_s = time.perf_counter() - start
        self.traced = tracer is not None
        #: (phase, request index) -> (start, end) of Server.submit, traced only
        self.submit_spans: Dict[Tuple[str, int], Tuple[float, float]] = {}
        self.queue_depths: List[int] = []

    def phase(self, name: str, rate: float, rows: np.ndarray,
              labels: np.ndarray, seed: int,
              sample_queue_every: int = 0) -> Phase:
        due = poisson_schedule(rate, len(rows), np.random.default_rng(seed))
        futures: List = [None] * len(rows)
        submit = self.server.submit
        server = self.server

        def send(index: int):
            if not self.traced:
                future = futures[index] = submit(rows[index])
                return future
            start = time.perf_counter()
            future = futures[index] = submit(rows[index])
            self.submit_spans[(name, index)] = (start, time.perf_counter())
            if sample_queue_every and index % sample_queue_every == 0:
                self.queue_depths.append(server.health()["queue_depth"])
            return future

        result = run_open_loop(due, send)
        predicted = np.full(len(rows), -1)
        for index, future in enumerate(futures):
            if result.ok[index]:
                predicted[index] = int(np.argmax(future.result()))
        return Phase(name, result, labels, predicted)

    def probe(self, rows: np.ndarray) -> np.ndarray:
        return np.stack([self.server.submit(row).result(timeout=30)
                         for row in rows])

    def stats(self) -> dict:
        return next(iter(self.server.stats().values()))

    def close(self) -> None:
        self.server.close()


# --------------------------------------------------------------------------- #
# Fleet serving through the CLI
# --------------------------------------------------------------------------- #
class FleetTarget:
    """``python -m repro.serve ART --fleet 2 --port 0`` in a subprocess."""

    def __init__(self, artifact: str, warm_rows: np.ndarray, clients: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.lines: List[str] = []
        self._ready = threading.Event()
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", artifact, "--fleet", "2",
             "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True,
                                        name="perfbench-fleet-stdout")
        self._reader.start()
        if not self._ready.wait(timeout=120):
            self.teardown()
            raise RuntimeError("fleet did not start: " + "".join(self.lines))
        self.spawn_s = time.perf_counter() - start
        self.port = self._router_port()
        self.worker_ports = [int(line.split(" on ")[1].split()[0]
                                 .rsplit(":", 1)[1])
                             for line in self.lines if " serving [" in line]
        self.clients = clients
        self.connections: List[Dict[int, http.client.HTTPConnection]] = [
            {} for _ in range(clients)]
        self.connects: List[float] = []
        self.requests = 0
        self._count_lock = threading.Lock()
        self.queue_depths: List[int] = []
        for row in warm_rows:
            self.request(0, row, self.port)
        self.setup_s = time.perf_counter() - start
        self.tree = [self.process.pid] + harness.descendants(self.process.pid)

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)
            if line.startswith("serving ") and "http://" in line:
                self._ready.set()

    def _router_port(self) -> int:
        for line in self.lines:
            if line.startswith("serving ") and "http://" in line:
                return int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
        raise RuntimeError("no address in the fleet's output")

    def request(self, client: int, row: np.ndarray, port: int,
                probabilities: bool = False) -> dict:
        """One ``POST /predict`` over this client's connection to ``port``."""
        connection = self.connections[client].get(port)
        if connection is None:
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=30)
            self.connections[client][port] = connection
        if connection.sock is None:
            start = time.perf_counter()
            connection.connect()
            self.connects.append(time.perf_counter() - start)
        body = json.dumps({"inputs": [float(x) for x in row],
                           "return_probabilities": probabilities})
        try:
            connection.request("POST", "/predict", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            raise
        with self._count_lock:
            self.requests += 1
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {payload[:200]!r}")
        return json.loads(payload)

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stats(self) -> dict:
        """The served model's fleet-wide batcher counters."""
        return next(entry for key, entry in self.get("/stats").items()
                    if not key.startswith("_"))

    def phase(self, name: str, rate: float, rows: np.ndarray,
              labels: np.ndarray, seed: int, port: Optional[int] = None,
              sample_queue_every: int = 0) -> Phase:
        due = poisson_schedule(rate, len(rows), np.random.default_rng(seed))
        predicted = np.full(len(rows), -1)
        port = self.port if port is None else port

        def send(client: int, index: int) -> None:
            reply = self.request(client, rows[index], port)
            predicted[index] = reply["predictions"][0]
            if sample_queue_every and index % sample_queue_every == 0:
                self.queue_depths.append(self.get("/healthz")["queue_depth"])

        result = run_open_loop_blocking(due, send, self.clients)
        return Phase(name, result, labels, predicted)

    def probe(self, rows: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(self.request(0, row, self.port, True)
                                    ["probabilities"][0], dtype=np.float32)
                         for row in rows])

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(pid for pid in self.tree if harness.alive(pid))

    def teardown(self) -> List[int]:
        """Stop the CLI with SIGINT; return the pids that outlived it."""
        for connections in getattr(self, "connections", []):
            for connection in connections.values():
                connection.close()
        tree = set(getattr(self, "tree", [self.process.pid]))
        if self.process.poll() is None:
            # Workers respawned since start-up belong to the tree too.
            tree.update(harness.descendants(self.process.pid))
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 10
        survivors = [pid for pid in tree if harness.alive(pid)]
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = [pid for pid in survivors if harness.alive(pid)]
        for pid in survivors:      # never leave a process behind
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.process.poll() is None:
            self.process.wait(timeout=10)
        self._reader.join(timeout=10)
        self.process.stdout.close()
        return survivors


# --------------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------------- #
def _clients() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def gauge_p99(values) -> float:
    """Nearest-rank p99 of a sampled gauge (a count, not a timing, so no
    minimum tail is required)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(0, int(np.ceil(0.99 * len(ordered))) - 1)])


def _counter_delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0)) - float(before.get(key, 0))


def _traced_layers(tracer: Tracer, target, phases: List[Phase],
                   before: dict, fleet: bool) -> Dict[str, float]:
    """Record client (and submit) spans, then read every layer's numbers."""
    wall = 0.0
    for phase in phases:
        result = phase.result
        for index in range(result.attempted):
            if np.isnan(result.done[index]):
                continue
            client = tracer.record("loadgen.request",
                                   result.t0 + result.due[index],
                                   result.t0 + result.done[index])
            submit = (target.submit_spans.get((phase.name, index))
                      if not fleet else None)
            if submit is not None:
                tracer.record("serve.server.submit", *submit, parent=client.id)
        wall += float(np.nanmax(result.done)) - float(result.due[0])
    after = target.stats()
    batches = _counter_delta(after, before, "batches")
    hits = _counter_delta(after, before, "cache_hits")
    misses = _counter_delta(after, before, "cache_misses")
    layer = {
        "serve.batching.mean_batch": misses / batches if batches else 0.0,
        "serve.batching.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "serve.batching.queue_depth_p99": gauge_p99(target.queue_depths),
        "serve.batching.expired": _counter_delta(after, before, "expired"),
    }
    if fleet:
        router = target.get("/stats").get("_router", {})
        layer.update({
            "serve.http.connect_ms": median(target.connects) * 1e3,
            "serve.http.requests_per_conn": target.requests / len(target.connects),
            "serve.router.retries": float(router.get("retries", 0)),
            "serve.router.failovers": float(router.get("failovers", 0)),
            "serve.router.late_responses": float(router.get("late_responses", 0)),
        })
    else:
        submits = [span.duration * 1e6
                   for span in tracer.named("serve.server.submit")]
        begin = phases[0].result.t0
        forwards = [span.duration for span in tracer.named("serve.artifact.forward")
                    if span.start >= begin]
        layer.update({
            "serve.server.submit_us.p50": median(submits),
            "serve.server.submit_us.p99": percentile(submits, 99),
            "serve.artifact.forward_us": median(forwards) * 1e6,
            "serve.artifact.forward_calls": float(len(forwards)),
            "serve.artifact.busy_share": sum(forwards) / wall,
        })
    return layer


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    profile = PROFILES[workload]
    fleet = workload == "serve_fleet"
    workspace = build_workspace("small", seed=0)
    artifact = prepare_artifact(workspace)
    source = RowSource(workspace, seed, profile)
    offline = load_servable(artifact)
    # The workspace the rows are sampled from is the benchmark's heap, not
    # the server's: keep it out of the collector, whose full passes over
    # it would otherwise stall the load generator for ~50 ms.
    gc.collect()
    gc.freeze()
    schedule_seeds = iter(range(seed * 1000 + 1, seed * 1000 + 1000))
    outcome = Outcome(end_to_end={}, per_layer={}, attempted=0, failed=0)
    # Tallies instead of kept phases, so memory does not grow with the
    # number of phases a run makes.
    tally = {"answered": 0, "correct": 0}
    clients = _clients() if fleet else 1

    def make_target(tracer: Optional[Tracer] = None):
        warm, _ = source.draw(WARM_ROWS)
        if fleet:
            return FleetTarget(artifact, warm, clients)
        return InProcTarget(artifact, warm, tracer=tracer)

    def retire(target) -> None:
        if fleet:
            survivors = target.teardown()
            outcome.check("fleet_teardown_clean", not survivors,
                          f"processes alive after SIGINT teardown: {survivors}")
        else:
            target.close()

    def load(target, name: str, rate: float, count: int, **kwargs) -> Phase:
        rows, labels = source.draw(count)
        phase = target.phase(name, rate, rows, labels, next(schedule_seeds),
                             **kwargs)
        expected = offline.predict_proba(rows, batch_size=QUANTUM).argmax(axis=1)
        answered = phase.result.ok
        outcome.check("served_class_matches_offline",
                      np.array_equal(phase.predicted[answered], expected[answered]),
                      f"phase {name}: every answered request against offline "
                      f"inference at the serving quantum")
        outcome.attempted += phase.result.attempted
        outcome.failed += phase.result.failed
        for error, count in phase.result.errors.items():
            errors = outcome.details.setdefault("errors", {})
            errors[error] = errors.get(error, 0) + count
        tally["answered"] += int(answered.sum())
        tally["correct"] += phase.correct()
        return phase

    def probe(target) -> None:
        rows, _ = source.draw(PROBE_ROWS)
        expected = offline.predict_proba(rows, batch_size=QUANTUM)
        outcome.check("probes_bit_identical",
                      np.array_equal(target.probe(rows), expected),
                      f"{PROBE_ROWS} probe rows against load_servable(ART)"
                      f".predict_proba(x, batch_size={QUANTUM})")
        outcome.attempted += PROBE_ROWS

    targets: list = []
    try:
        for _ in range(profile.setups):
            if targets:
                retire(targets.pop())
            targets.append(make_target())
            outcome.details.setdefault("setup_seconds", []).append(
                targets[-1].setup_s)
        target = targets[-1]
        lo_count = max(200, int(profile.lo_rate * seconds * profile.lo_share))
        hi_count = max(P99_SAMPLES, int(profile.hi_rate * seconds * 0.25))
        if not trace:
            # Low-rate chunks alternate with the overload bursts, so slow
            # drifts of the host weigh on both measurements alike.
            chunks = np.array_split(np.arange(lo_count), profile.bursts + 1)
            lo_parts = [load(target, "lo", profile.lo_rate, len(chunks[0]))]
            bursts = []
            for chunk in chunks[1:]:
                rate = profile.burst_requests / profile.burst_s
                burst = load(target, "burst", rate, profile.burst_requests)
                bursts.append(burst.result.achieved_rate())
                lo_parts.append(load(target, "lo", profile.lo_rate, len(chunk)))
            probe(target)
            outcome.end_to_end = {
                "setup_s": median(outcome.details["setup_seconds"]),
                "peak_rss_mb": (target.peak_rss_mib() if fleet
                                else peak_rss_mib()),
                "p50_ms": median(np.concatenate(
                    [part.result.latencies_ms() for part in lo_parts])),
                "throughput": median(bursts),
                "accuracy": tally["correct"] / max(1, tally["answered"]),
            }
            outcome.details["lo"] = {"rate": profile.lo_rate,
                                     "requests": lo_count}
            outcome.details["burst_rates"] = bursts
            return outcome

        lo = load(target, "lo", profile.lo_rate, max(lo_count, P99_SAMPLES))
        p50_lo = median(lo.result.latencies_ms())
        hi = load(target, "hi", profile.hi_rate, hi_count)
        start = profile.ladder_start or round(0.75 * clients / (p50_lo / 1e3), 1)
        rung_min = samples_needed(profile.ladder_q)
        rungs: List[dict] = []

        def rung(rate: float) -> Rung:
            count = max(rung_min, int(rate * profile.rung_s))
            phase = load(target, f"rung{rate:.0f}", rate, count)
            verdict = judge(rate, phase.result, profile.limit_ms,
                            q=profile.ladder_q)
            rungs.append({"rate": rate, "requests": count,
                          "achieved": phase.result.achieved_rate(),
                          "tail_ms": verdict.tail_ms, "lag_ms": verdict.lag_ms,
                          "drain_ms": verdict.drain_ms, "meets": verdict.meets})
            return verdict

        best = climb_ladder(rung, start, profile.ladder_ratio,
                            refinements=profile.refinements)
        outcome.check("ladder_found_a_rate", best is not None,
                      f"no rung from {start:.1f} req/s met the limit")
        outcome.details["ladder"] = rungs
        layer = {
            "loadgen.max_rps": best.result.achieved_rate() if best else 0.0,
            "loadgen.lag_p99_ms": percentile(
                np.concatenate([lo.result.lag_ms(), hi.result.lag_ms()]), 99),
            "loadgen.p99_ms.lo": percentile(lo.result.latencies_ms(), 99),
            "loadgen.p50_ms.hi": median(hi.result.latencies_ms()),
            "loadgen.p99_ms.hi": percentile(hi.result.latencies_ms(), 99),
        }
        # Medians only from here on, which need fewer requests than a p99.
        lo_count = max(200, lo_count // 2)
        if fleet:
            direct = load(target, "direct_lo", profile.lo_rate, lo_count,
                          port=target.worker_ports[0])
            layer["serve.router.hop_ms"] = (
                p50_lo - median(direct.result.latencies_ms()))
            layer["serve.fleet.spawn_s"] = median(t.spawn_s for t in targets)
        tracer = Tracer()
        if not fleet:
            targets.append(make_target(tracer))
        traced = targets[-1]
        before = traced.stats()
        every = QUEUE_SAMPLE_EVERY[workload]
        traced_phases = [
            load(traced, "traced_lo", profile.lo_rate, lo_count,
                 sample_queue_every=every),
            load(traced, "traced_hi", profile.hi_rate, hi_count,
                 sample_queue_every=every)]
        layer.update(_traced_layers(tracer, traced, traced_phases, before,
                                    fleet))
        layer["trace.overhead_ms"] = (
            median(traced_phases[0].result.latencies_ms()) - p50_lo)
        layer["loadgen.sent"] = float(sum(p.result.attempted
                                          for p in traced_phases))
        layer["trace.spans"] = float(len(tracer.spans))
        probe(traced)
        outcome.per_layer = layer
        outcome.spans = tracer.as_records()
        return outcome
    finally:
        for target in targets:
            retire(target)
