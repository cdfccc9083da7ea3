"""perfbench: the repository benchmark for training and serving TAGLETS.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train_cold --seed 1 --seconds 12 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``train_cold``   - ``Controller.run`` on fmd 5-shot, paying the ZSL-KG pretrain
* ``train_warm``   - grocery_store then officehome_product on a warm workspace
* ``serve_inproc`` - open-loop Poisson load into an in-process ``Server.submit``
* ``serve_fleet``  - open-loop JSON ``POST /predict`` to ``python -m repro.serve
  --fleet 2`` over at most ``nproc`` client connections

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` hold every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric, from spans recorded around each layer's public entry
points in a separate, traced pass.  A layer a workload does not exercise
reports 0.  The line before it is the full record: host stamp, every
correctness check, known defects and details.  Spans of a traced run are
written to ``.bench_build/perfbench/``.  The run exits non-zero when a
correctness check fails or when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("train_cold", "train_warm", "serve_inproc", "serve_fleet")

#: end-to-end metrics (name -> unit), reported on every workload.  An
#: operation is one sample of the workload's Controller.run calls on the
#: training workloads and one request on the serving workloads.
END_TO_END = {
    # median of the run's repeated set-ups
    "setup_s": "s",
    # peak resident memory of the processes under test
    "peak_rss_mb": "MiB",
    # median operation latency; serving: at the low rate, from the due time
    "p50_ms": "ms",
    # operations completed per second: training runs back to back; serving
    # requests under an open-loop overload burst (median of the bursts)
    "throughput": "1/s",
    # end-model test accuracy; serving: served predictions against the
    # request rows' true classes
    "accuracy": "fraction",
}

TRAIN_LAYERS = {
    "workspace.build_s": "s",
    "scads.select_s": "s",
    "modules.zsl_kg.train_s": "s",
    "modules.transfer.train_s": "s",
    "modules.multitask.train_s": "s",
    "modules.fixmatch.train_s": "s",
    "ensemble.predict_proba_s": "s",
    "distill.train_end_model_s": "s",
    "core.controller.self_s": "s",
    "nn.replay.captures": "count",
    "nn.replay.replays": "count",
    "nn.replay.fallbacks": "count",
}
SERVE_LAYERS = {
    # highest ladder rate meeting the latency limit without a growing backlog
    "loadgen.max_rps": "1/s",
    "serve.batching.mean_batch": "rows",
    "serve.batching.cache_hit_ratio": "fraction",
    "serve.batching.queue_depth_p99": "count",
    "serve.batching.expired": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.p99_ms.lo": "ms",
    "loadgen.p50_ms.hi": "ms",
    "loadgen.p99_ms.hi": "ms",
}
INPROC_LAYERS = {
    "serve.server.submit_us.p50": "us",
    "serve.server.submit_us.p99": "us",
    "serve.artifact.forward_us": "us",
    "serve.artifact.forward_calls": "count",
    "serve.artifact.busy_share": "fraction",
}
FLEET_LAYERS = {
    "serve.http.connect_ms": "ms",
    "serve.http.requests_per_conn": "count",
    "serve.router.hop_ms": "ms",
    "serve.router.retries": "count",
    "serve.router.failovers": "count",
    "serve.router.late_responses": "count",
    "serve.fleet.spawn_s": "s",
}
COMMON_LAYERS = {
    # traced minus untraced p50_ms
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}
#: per-layer metrics each workload must measure; the rest report 0
LAYERS_OF = {
    "train_cold": {**TRAIN_LAYERS, **COMMON_LAYERS},
    "train_warm": {**TRAIN_LAYERS, **COMMON_LAYERS},
    "serve_inproc": {**SERVE_LAYERS, **INPROC_LAYERS, **COMMON_LAYERS},
    "serve_fleet": {**SERVE_LAYERS, **FLEET_LAYERS, **COMMON_LAYERS},
}
PER_LAYER = {**TRAIN_LAYERS, **SERVE_LAYERS, **INPROC_LAYERS, **FLEET_LAYERS,
             **COMMON_LAYERS}

#: defects of the program this benchmark works around without hiding them
KNOWN_DEFECTS = [
    "repro.datasets seeds the out-of-vocabulary grocery_store prototypes "
    "with hash(spec.name) in _sample_classes, so grocery_store splits and "
    "their accuracy change with PYTHONHASHSEED; accuracy is checked against "
    "floors, not exact values.",
    "SIGTERM to the `python -m repro.serve --fleet` parent orphans its "
    "spawned workers; the benchmark stops the fleet with SIGINT, the CLI's "
    "clean path, and fails if any process of the tree outlives teardown.",
]


def _workload_module(workload: str):
    if workload.startswith("train_"):
        import training
        return training
    import serving
    return serving


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from harness import host_stamp

    started = time.time()
    outcome = _workload_module(args.workload).run(
        args.workload, args.seed, args.seconds, bool(args.trace))

    missing = [name for name in (END_TO_END if not args.trace
                                 else LAYERS_OF[args.workload])
               if name not in (outcome.end_to_end if not args.trace
                               else outcome.per_layer)]
    outcome.check("all_metrics_measured", not missing, f"missing {missing}")
    if args.trace:
        values = {name: float(outcome.per_layer.get(name, 0.0))
                  for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {name: float(outcome.end_to_end[name])
                  for name in END_TO_END if name in outcome.end_to_end}
        units = END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started_unix": started, "host": host_stamp(),
        "end_to_end": outcome.end_to_end, "per_layer": outcome.per_layer,
        "checks": [{"name": name, "passed": passed, "detail": detail}
                   for name, passed, detail in outcome.checks],
        "known_defects": KNOWN_DEFECTS, "details": outcome.details,
    }
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    stem = os.path.join(OUTPUT_DIR, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1, default=float)
    if outcome.spans:
        with open(stem + ".spans.json", "w") as handle:
            json.dump(outcome.spans, handle)

    for name, passed, detail in outcome.checks:
        if not passed:
            print(f"perfbench: check {name} failed: {detail}", file=sys.stderr)
    print(json.dumps(record, default=float))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
