"""Fleet chaos smoke for CI: kill a serving worker mid-traffic, lose nothing.

Stands up a 2-process serving fleet (worker processes behind the routing
front end, exposed on its own HTTP port), fires concurrent traffic from
keep-alive HTTP clients through that port, SIGKILLs one replica while
requests are in flight, and fails if:

* any client request errors — replica death must be absorbed by the
  router's retry/failover path (plus the parent-held listening socket:
  connections parked in the backlog are answered by the replacement);
* any served probability row differs by one bit from offline inference at
  the serving quantum — routing, retries, and failovers must be invisible
  in the output;
* the killed replica does not respawn healthy on its original port — the
  single replacement-respawn path must restore full capacity;
* a connection is opened that the kill does not force: each client keeps
  one connection to the router for all its requests, the router never
  opens more connections to the surviving replica than requests it can
  have in flight at once, and it reconnects to the killed replica only
  after the kill.

All four checks are exact everywhere (no perf ratios involved); the
fleet *throughput* story lives in ``test_serve_throughput.py``.  Run with
``PYTHONPATH=src python benchmarks/fleet_smoke.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import tempfile
import threading
import time
from collections import Counter

import numpy as np

from repro.backbones.backbone import BackboneSpec, ClassificationModel, Encoder
from repro.distill import EndModel
from repro.serve import (BatchingConfig, FleetConfig, RouterConfig,
                         ServingFleet, export_end_model, load_servable,
                         make_http_server, replicated_specs)

SPEC = BackboneSpec(name="resnet50", input_dim=64, hidden_dims=(128, 128),
                    feature_dim=64, pretraining="imagenet1k-analog")
NUM_CLASSES = 10
NUM_REQUESTS = 400
NUM_CLIENTS = 4
QUANTUM = 32
KILL_AFTER = 40     # requests served before the SIGKILL lands


def main() -> int:
    cpus = len(os.sched_getaffinity(0))
    print(f"fleet smoke: {cpus} CPU(s) available to this process")

    with tempfile.TemporaryDirectory(prefix="repro-fleet-smoke-") as tmp:
        artifact = os.path.join(tmp, "artifact")
        encoder = Encoder(SPEC, rng=np.random.default_rng(0))
        model = ClassificationModel(encoder, NUM_CLASSES,
                                    rng=np.random.default_rng(1))
        export_end_model(EndModel(model), artifact,
                         class_names=[f"c{i}" for i in range(NUM_CLASSES)])
        inputs = np.random.default_rng(2).normal(
            size=(NUM_REQUESTS, SPEC.input_dim))
        offline = load_servable(artifact).predict_proba(inputs,
                                                        batch_size=QUANTUM)

        config = FleetConfig(
            batching=BatchingConfig(max_batch_size=QUANTUM, max_latency_ms=2,
                                    cache_size=0),
            router=RouterConfig(health_interval=0.1))
        specs = replicated_specs([("smoke", artifact)], 2)
        print("spawning a 2-process fleet...")
        with ServingFleet(specs, config) as fleet:
            victim = fleet.replica_ids()[0]
            addresses = dict(fleet.addresses())
            port_before = addresses[victim][1]
            survivor_port = addresses[fleet.replica_ids()[1]][1]
            httpd = make_http_server(fleet.router, port=0)
            threading.Thread(target=httpd.serve_forever, daemon=True).start()
            router_port = httpd.server_address[1]
            # Every TCP connection this process opens, by destination port:
            # the clients' to the router, the router's to each worker.
            connects: Counter = Counter()
            connect = http.client.HTTPConnection.connect

            def counting_connect(connection):
                connects[connection.port] += 1
                return connect(connection)

            http.client.HTTPConnection.connect = counting_connect
            errors: list = []
            mismatches: list = []
            served = threading.Semaphore(0)

            def client(indices):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", router_port, timeout=120)
                for i in indices:
                    try:
                        connection.request(
                            "POST", "/predict",
                            body=json.dumps({
                                "model": "smoke",
                                "inputs": inputs[i].tolist(),
                                "return_probabilities": True}),
                            headers={"Content-Type": "application/json"})
                        response = connection.getresponse()
                        payload = json.loads(response.read())
                        if response.status != 200:
                            raise RuntimeError(
                                f"HTTP {response.status}: {payload}")
                        row = np.asarray(payload["probabilities"][0])
                        if not np.array_equal(row, offline[i]):
                            mismatches.append(i)
                    except Exception as error:  # noqa: BLE001
                        errors.append((i, error))
                    served.release()
                connection.close()

            threads = [threading.Thread(target=client,
                                        args=(range(k, NUM_REQUESTS,
                                                    NUM_CLIENTS),))
                       for k in range(NUM_CLIENTS)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for _ in range(KILL_AFTER):
                served.acquire()
            print(f"SIGKILL {victim} after {KILL_AFTER} requests, "
                  f"traffic still flowing...")
            victim_before_kill = connects[port_before]
            fleet.kill_replica(victim)
            for thread in threads:
                thread.join(timeout=300)
            elapsed = time.perf_counter() - start
            httpd.shutdown()
            httpd.server_close()

            respawned = fleet.router.wait_healthy(2, timeout=30)
            port_after = dict(fleet.addresses())[victim][1]
            alive = fleet.processes_alive()
            router_stats = fleet.stats()["_router"]
            print(f"{NUM_REQUESTS} requests in {elapsed:.2f}s "
                  f"({NUM_REQUESTS / elapsed:.0f}/s) — "
                  f"{len(errors)} failed, {len(mismatches)} wrong-bits, "
                  f"{router_stats['retries']} retries, "
                  f"{router_stats['failovers']} failovers")
            print(f"respawn: healthy={respawned} "
                  f"port {port_before}->{port_after} "
                  f"processes_alive={alive} "
                  f"respawns={fleet.router.replica(victim).respawns}")
            http.client.HTTPConnection.connect = connect
            # At most this many exchanges with one replica are in flight at
            # once (every client's request plus one health probe), so a
            # keep-alive pool never needs more connections to it.
            in_flight = NUM_CLIENTS + 1
            print(f"connections: {connects[router_port]} client->router, "
                  f"{connects[survivor_port]} router->survivor, "
                  f"{victim_before_kill} + "
                  f"{connects[port_before] - victim_before_kill} "
                  f"router->victim (before + after the kill)")

            failures = []
            if errors:
                failures.append(f"{len(errors)} client request(s) failed: "
                                f"{errors[:3]}")
            if mismatches:
                failures.append(f"{len(mismatches)} served row(s) not "
                                f"bit-identical to offline")
            if not respawned:
                failures.append("killed replica did not respawn healthy")
            if port_after != port_before:
                failures.append(f"replica moved ports "
                                f"{port_before}->{port_after}")
            if not all(alive.values()):
                failures.append(f"dead worker process(es): {alive}")
            if connects[router_port] != NUM_CLIENTS:
                failures.append(f"{connects[router_port]} client connections "
                                f"for {NUM_CLIENTS} keep-alive clients")
            if connects[survivor_port] > in_flight:
                failures.append(f"{connects[survivor_port]} connections to "
                                f"the surviving replica, more than the "
                                f"{in_flight} exchanges that can overlap")
            if victim_before_kill > in_flight:
                failures.append(f"{victim_before_kill} connections to the "
                                f"victim before the kill, more than the "
                                f"{in_flight} exchanges that can overlap")
            if failures:
                for failure in failures:
                    print(f"FAIL: {failure}")
                return 1
    print("fleet smoke OK: replica death was invisible to clients")
    return 0


if __name__ == "__main__":
    sys.exit(main())
