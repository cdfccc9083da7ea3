"""The training workloads: ``train_cold`` and ``train_warm``.

Both time public ``Controller.run`` calls on 5-shot splits drawn with the
workload seed as the split seed, in float32 on the default sequential path
with the default four modules.

* ``train_cold`` times one run on fmd per freshly built workspace, so every
  operation pays the ZSL-KG pretrain.  Earlier workspaces stay referenced
  for the whole run, so no object id the pretrain cache keys on is ever
  reused, and the replay counters prove each operation pretrained.
* ``train_warm`` builds its workspaces and pretrains the ZSL-KG encoder
  during set-up, then times sweeps of grocery_store followed by
  officehome_product, the way the evaluation grid uses one workspace.

In a traced run the public entry points of each layer are wrapped from
here (nothing under ``src/`` is edited) and traced operations alternate
with untraced ones, so the difference is the tracing overhead.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

import repro.core.controller as controller_module
from repro.core import Controller, ControllerConfig, Task
from repro.ensemble import TagletEnsemble
from repro.modules import (FixMatchModule, MultiTaskModule, TransferModule,
                           ZslKgConfig, ZslKgModule)
from repro.nn.replay import ReplayStats
from repro.workspace import build_workspace

from harness import Outcome, Tracer, median, patched, peak_rss_mib, self_time

SHOTS = 5
COLD_TASKS = ("fmd",)
WARM_TASKS = ("grocery_store", "officehome_product")
#: End-model test-accuracy floors.  Split seeds 0-4 gave 0.82-0.90 on fmd,
#: 0.90-0.92 on grocery_store and 0.87-0.89 on officehome_product.  These
#: are floors, not exact values: grocery_store's splits change with the
#: process hash seed (see KNOWN_DEFECTS in run.py).
ACCURACY_FLOORS = {"fmd": 0.70, "grocery_store": 0.80,
                   "officehome_product": 0.75}
#: The accuracy metric scores each end model on this many fresh rows per
#: class, sampled from the world like the task's own images: fmd's test split
#: has 50 rows, whose sampling noise alone spreads accuracy by about 0.05.
EVAL_PER_CLASS = 100
#: appearance noise each dataset is sampled with (None: the world default)
EVAL_NOISE = {"fmd": 0.5}
MODULE_CLASSES = (TransferModule, MultiTaskModule, FixMatchModule, ZslKgModule)
#: the layers a Controller.run span's children are attributed to
CHILD_LAYERS = {"scads.select": "scads.select_s",
                "ensemble.predict_proba": "ensemble.predict_proba_s",
                "distill.train_end_model": "distill.train_end_model_s",
                **{f"modules.{cls.name}.train": f"modules.{cls.name}.train_s"
                   for cls in MODULE_CLASSES}}
#: Operations per pass are ``--seconds`` over this nominal operation time
#: (about one operation's duration on a 2-CPU host), at least 3, so the work
#: done, and the memory the kept workspaces take, never depends on how fast
#: the program under test runs.
NOMINAL_OP_S = 4.0
MIN_OPS = 3
#: workspaces train_warm sets up (each pays one pretrain during set-up)
WARM_SETUPS = 2


@dataclass
class Op:
    """One timed operation: the Controller.run calls of one sample."""

    seconds: float
    #: accuracy on the split's own test rows (checked against the floors)
    accuracy: Dict[str, float]
    #: accuracy on the benchmark's larger evaluation rows (the metric)
    eval_accuracy: Dict[str, float]
    replay: ReplayStats
    traced: bool


def eval_sets(workspace, datasets: Sequence[str],
              seed: int) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Fresh labelled rows of every class of each dataset, from the seed."""
    rng = np.random.default_rng([seed, 20_000])
    sets = {}
    for dataset in datasets:
        data = workspace.dataset(dataset)
        rows = [workspace.world.sample_images(
                    spec.concept or spec.name, EVAL_PER_CLASS,
                    domain=data.domain, rng=rng, noise=EVAL_NOISE.get(dataset))
                for spec in data.classes]
        labels = np.repeat(np.arange(len(data.classes)), EVAL_PER_CLASS)
        sets[dataset] = (np.concatenate(rows), labels)
    return sets


@dataclass
class Setup:
    workspace: object
    backbone: object
    build_s: float
    total_s: float


def _build() -> Setup:
    start = time.perf_counter()
    workspace = build_workspace("small", seed=0)
    backbone = workspace.backbone("resnet50")
    elapsed = time.perf_counter() - start
    return Setup(workspace, backbone, elapsed, elapsed)


def _config(stats: ReplayStats, modules: Sequence[str] = None) -> ControllerConfig:
    config = ControllerConfig(dtype="float32", replay_stats=stats)
    if modules is not None:
        config.modules = tuple(modules)
    return config


def _train(setup: Setup, datasets: Sequence[str], seed: int, evals: dict,
           traced: bool = False) -> Op:
    """Run the pipeline once per dataset; only ``Controller.run`` is timed."""
    stats = ReplayStats()
    elapsed = 0.0
    accuracy: Dict[str, float] = {}
    eval_accuracy: Dict[str, float] = {}
    for dataset in datasets:
        split = setup.workspace.make_task_split(dataset, shots=SHOTS,
                                                split_seed=seed)
        task = Task.from_split(split, scads=setup.workspace.scads,
                               backbone=setup.backbone)
        controller = Controller(config=_config(stats))
        start = time.perf_counter()
        result = controller.run(task)
        elapsed += time.perf_counter() - start
        accuracy[dataset] = result.end_model_accuracy(split.test_features,
                                                      split.test_labels)
        eval_accuracy[dataset] = result.end_model_accuracy(*evals[dataset])
    return Op(elapsed, accuracy, eval_accuracy, stats, traced)


@contextmanager
def traced_pipeline(tracer: Tracer):
    """Wrap each layer's public entry point in a span for the scope."""
    with ExitStack() as stack:
        stack.enter_context(patched(
            Controller, "run", tracer.wrap("controller.run", Controller.run)))
        stack.enter_context(patched(
            Controller, "select_auxiliary_data",
            tracer.wrap("scads.select", Controller.select_auxiliary_data)))
        for cls in MODULE_CLASSES:
            stack.enter_context(patched(
                cls, "train", tracer.wrap(f"modules.{cls.name}.train", cls.train)))
        stack.enter_context(patched(
            TagletEnsemble, "predict_proba",
            tracer.wrap("ensemble.predict_proba", TagletEnsemble.predict_proba)))
        # Controller.run calls the name bound in its own module.
        stack.enter_context(patched(
            controller_module, "train_end_model",
            tracer.wrap("distill.train_end_model",
                        controller_module.train_end_model)))
        yield


def _measure(setups: List[Setup], datasets: Sequence[str], seed: int,
             evals: dict, count: int, trace: bool, tracer: Tracer) -> List[Op]:
    """``count`` untraced operations and, with ``trace``, ``count`` traced
    ones, alternating so that drifts of the host hit both alike.  Operation
    ``i`` runs on ``setups[i % len(setups)]``."""
    passes = (False, True) if trace else (False,)
    ops: List[Op] = []
    for index in range(count * len(passes)):
        setup = setups[index % len(setups)]
        if passes[index % len(passes)]:
            with traced_pipeline(tracer):
                ops.append(_train(setup, datasets, seed, evals, traced=True))
        else:
            ops.append(_train(setup, datasets, seed, evals))
    return ops


def _layer_breakdown(tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    """Per-layer seconds of each Controller.run span, checking that its
    children plus its self time add up to its duration."""
    totals: Dict[str, float] = {name: 0.0 for name in CHILD_LAYERS.values()}
    totals["core.controller.self_s"] = 0.0
    worst = 0.0
    for span in tracer.named("controller.run"):
        children = tracer.children(span)
        own = self_time(span, children)
        worst = max(worst, abs(sum(c.duration for c in children) + own
                               - span.duration))
        totals["core.controller.self_s"] += own
        for child in children:
            totals[CHILD_LAYERS[child.name]] += child.duration
    outcome.check("controller_spans_partition", worst <= 1e-6,
                  f"largest gap between children + self and the span: {worst:.2e} s")
    return totals


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    cold = workload == "train_cold"
    datasets = COLD_TASKS if cold else WARM_TASKS
    tracer = Tracer()

    def make_setup() -> Setup:
        with tracer.span("workspace.build") if trace else ExitStack():
            setup = _build()
        if not cold:
            # The warm set-up pays the ZSL-KG pretrain for this workspace.
            split = setup.workspace.make_task_split(COLD_TASKS[0], shots=SHOTS,
                                                    split_seed=seed)
            task = Task.from_split(split, scads=setup.workspace.scads,
                                   backbone=setup.backbone)
            start = time.perf_counter()
            Controller(config=_config(ReplayStats(), ["zsl_kg"])).run(task)
            setup.total_s += time.perf_counter() - start
        return setup

    count = max(MIN_OPS, round(seconds / NOMINAL_OP_S))
    # A cold operation gets a workspace of its own; all of them stay alive.
    setups = [make_setup() for _ in range(
        count * (2 if trace else 1) if cold else WARM_SETUPS)]
    evals = eval_sets(setups[0].workspace, datasets, seed)
    ops = _measure(setups, datasets, seed, evals, count, trace, tracer)
    rss = peak_rss_mib()
    untraced = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    outcome = Outcome(end_to_end={}, per_layer={}, attempted=len(ops), failed=0)

    for op in ops:
        outcome.check("replay_fallbacks_zero", op.replay.fallback_count == 0,
                      f"fallbacks {op.replay.fallbacks}")
        for dataset, accuracy in op.accuracy.items():
            outcome.check(f"accuracy_floor.{dataset}",
                          accuracy >= ACCURACY_FLOORS[dataset],
                          f"{accuracy:.4f} >= {ACCURACY_FLOORS[dataset]}")
    if cold:
        # A warm run of the same task on an already-pretrained workspace:
        # each cold operation must replay the whole pretrain on top of it.
        warm = _train(setups[0], datasets, seed, evals)
        expected = 2 * ZslKgConfig().pretrain_epochs
        for op in ops:
            extra = op.replay.total - warm.replay.total
            outcome.check("cold_pays_pretrain", extra == expected,
                          f"{extra} more replay steps than warm, expected {expected}")

    accuracies = [sum(op.eval_accuracy.values()) / len(op.eval_accuracy)
                  for op in untraced]
    op_s = [op.seconds for op in untraced]
    outcome.end_to_end = {
        "setup_s": median(s.total_s for s in setups),
        "peak_rss_mb": rss,
        "p50_ms": median(op_s) * 1e3,
        "throughput": len(op_s) / sum(op_s),
        "accuracy": median(accuracies),
    }
    outcome.details = {
        "operation": " + ".join(f"Controller.run({d} {SHOTS}-shot)" for d in datasets),
        "op_seconds": op_s,
        "setup_seconds": [s.total_s for s in setups],
        "test_accuracy": [op.accuracy for op in untraced],
        "eval_accuracy": [op.eval_accuracy for op in untraced],
        "replay": [{"captures": op.replay.captures, "replays": op.replay.replays,
                    "fallbacks": op.replay.fallback_count} for op in ops],
    }
    if trace:
        layers = _layer_breakdown(tracer, outcome)
        per_op = len(traced)
        layer = {name: value / per_op for name, value in layers.items()}
        layer["workspace.build_s"] = median(s.build_s for s in setups)
        layer["nn.replay.captures"] = median(op.replay.captures for op in traced)
        layer["nn.replay.replays"] = median(op.replay.replays for op in traced)
        layer["nn.replay.fallbacks"] = max(op.replay.fallback_count for op in ops)
        layer["trace.overhead_ms"] = (median(op.seconds for op in traced)
                                      - median(op_s)) * 1e3
        layer["trace.spans"] = len(tracer.spans)
        outcome.per_layer = layer
        outcome.spans = tracer.as_records()
    return outcome
