"""Tests of the benchmark's own logic.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import Future

import numpy as np
import pytest

import harness
from harness import (InsufficientSamples, LoadResult, Rung, Span, Tracer,
                     climb_ladder, judge, percentile, poisson_schedule,
                     run_open_loop, run_open_loop_blocking, samples_needed,
                     self_time)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _resolved(value=None) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


# --------------------------------------------------------------------------- #
# Percentiles: at least ten samples beyond
# --------------------------------------------------------------------------- #
def test_samples_needed_leaves_ten_beyond():
    assert samples_needed(99) == 1000
    assert samples_needed(95) == 200
    assert samples_needed(50) == 20


def test_percentile_requires_ten_samples_beyond():
    values = list(range(1, 1001))
    assert percentile(values, 99) == 990.0
    with pytest.raises(InsufficientSamples):
        percentile(values[:999], 99)
    assert percentile(values[:200], 95) == 190.0
    with pytest.raises(InsufficientSamples):
        percentile([], 50)


def test_failures_count_against_the_percentile():
    values = [1.0] * 989 + [float("inf")] * 11
    assert percentile(values, 99) == float("inf")
    assert percentile([1.0] * 990 + [float("inf")] * 10, 99) == 1.0


# --------------------------------------------------------------------------- #
# Due-time accounting and generator lag
# --------------------------------------------------------------------------- #
def test_latency_is_measured_from_the_due_time():
    result = LoadResult(due=np.array([0.0, 0.1, 0.2]),
                        sent=np.array([0.0, 0.15, 0.2]),
                        done=np.array([0.01, 0.16, 0.5]),
                        ok=np.array([True, True, False]))
    np.testing.assert_allclose(result.latencies_ms()[:2], [10.0, 60.0])
    assert result.latencies_ms()[2] == float("inf")
    np.testing.assert_allclose(result.lag_ms(), [0.0, 50.0, 0.0], atol=1e-9)
    assert result.failed == 1
    assert result.drain_ms() == pytest.approx(300.0)


def test_a_stall_is_charged_to_every_request_due_during_it():
    due = np.arange(10) * 0.005            # one request every 5 ms

    def submit(index: int) -> Future:
        if index == 0:
            time.sleep(0.05)               # the system stalls the sender
        return _resolved()

    result = run_open_loop(due, submit)
    assert result.failed == 0
    latency = result.latencies_ms()
    lag = result.lag_ms()
    # Requests due during the 50 ms stall left late; each waited from its
    # due time, not from when it was finally sent.
    for index in range(1, 9):
        assert lag[index] >= 50.0 - due[index] * 1e3 - 1.0
        assert latency[index] >= lag[index]
    assert latency[0] >= 49.0


def test_refused_and_failed_requests_are_counted():
    def submit(index: int) -> Future:
        if index == 1:
            raise ValueError("refused at submit")
        future: Future = Future()
        if index == 2:
            future.set_exception(RuntimeError("forward failed"))
        else:
            future.set_result(None)
        return future

    result = run_open_loop(np.array([0.0, 0.001, 0.002, 0.003]), submit)
    assert result.ok.tolist() == [True, False, False, True]
    assert result.errors == {"ValueError": 1, "RuntimeError": 1}


def test_blocking_generator_keeps_its_schedule_open_loop():
    # One client, 20 ms of service per request, a request due every 5 ms:
    # a closed loop would wait; the open loop charges the queueing.
    due = np.arange(8) * 0.005
    result = run_open_loop_blocking(due, lambda client, i: time.sleep(0.02),
                                    clients=1)
    latency = result.latencies_ms()
    assert result.failed == 0
    assert np.all(np.diff(latency) > 10.0)        # the backlog grows
    assert result.lag_ms()[-1] >= 7 * 15.0 - 5.0


def test_blocking_generator_uses_at_most_its_clients():
    active, peak = [0], [0]
    lock = harness.threading.Lock()

    def send(client: int, index: int) -> None:
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        time.sleep(0.01)
        with lock:
            active[0] -= 1

    result = run_open_loop_blocking(np.zeros(12), send, clients=2)
    assert result.failed == 0 and peak[0] <= 2


def test_poisson_schedule_has_the_exact_mean_rate_and_is_seeded():
    due = poisson_schedule(1000.0, 500, np.random.default_rng(3))
    again = poisson_schedule(1000.0, 500, np.random.default_rng(3))
    np.testing.assert_array_equal(due, again)
    assert due[0] == 0.0 and np.all(np.diff(due) >= 0)
    gaps = np.diff(np.concatenate([[0.0], due]))
    assert due[-1] + gaps[1:].mean() == pytest.approx(0.5, rel=0.05)


# --------------------------------------------------------------------------- #
# Backlog detection and the ladder
# --------------------------------------------------------------------------- #
def _result(latency_ms: float, lag_ms: float = 0.0, n: int = 1000,
            drain_ms: float = 0.0, failures: int = 0) -> LoadResult:
    due = np.arange(n) * 0.001
    sent = due + lag_ms / 1e3
    done = due + latency_ms / 1e3
    done[-1] = due[-1] + drain_ms / 1e3
    ok = np.ones(n, dtype=bool)
    ok[:failures] = False
    return LoadResult(due=due, sent=sent, done=done, ok=ok)


def test_judge_meets_the_limit_without_backlog():
    assert judge(1000, _result(5.0), limit_ms=20.0).meets


def test_judge_rejects_a_slow_tail_a_late_generator_and_a_slow_drain():
    assert not judge(1000, _result(25.0), limit_ms=20.0).meets
    assert not judge(1000, _result(5.0, lag_ms=30.0), limit_ms=20.0).meets
    assert not judge(1000, _result(5.0, drain_ms=40.0), limit_ms=20.0).meets


def test_judge_counts_a_failure_as_missing_the_limit():
    assert not judge(1000, _result(5.0, failures=1), limit_ms=20.0).meets


def _capacity_probe(capacity: float, flaky=()):
    """Rungs up to ``capacity`` pass, except that the first attempt at each
    rate in ``flaky`` fails."""
    calls = []
    flaky = {round(rate, 6) for rate in flaky}

    def probe(rate: float) -> Rung:
        calls.append(round(rate, 6))
        meets = rate <= capacity and not (
            calls[-1] in flaky and calls.count(calls[-1]) == 1)
        return Rung(rate, None, 0.0, 0.0, 0.0, meets)
    return probe, calls


def test_ladder_climbs_to_the_highest_passing_rung():
    probe, calls = _capacity_probe(150.0)
    best = climb_ladder(probe, 100.0, 1.1)
    assert best.rate == pytest.approx(100.0 * 1.1 ** 4)    # 146.4
    assert all(b / a == pytest.approx(1.1) for a, b in
               zip(sorted(set(calls)), sorted(set(calls))[1:]))


def test_ladder_retries_a_rung_once_before_stopping():
    flaky = {100.0 * 1.1 ** 2}
    probe, calls = _capacity_probe(150.0, flaky=flaky)
    assert climb_ladder(probe, 100.0, 1.1).rate == pytest.approx(146.41)
    probe, _ = _capacity_probe(150.0, flaky=flaky)
    assert climb_ladder(probe, 100.0, 1.1, attempts=1).rate == pytest.approx(110.0)


def test_ladder_descends_when_the_start_fails_and_refines():
    probe, _ = _capacity_probe(80.0)
    best = climb_ladder(probe, 100.0, 1.1, refinements=2)
    assert 100.0 / 1.1 ** 3 <= best.rate <= 80.0
    assert best.rate > 100.0 / 1.1 ** 3


def test_ladder_steps_are_at_most_ten_percent():
    probe, _ = _capacity_probe(150.0)
    with pytest.raises(ValueError):
        climb_ladder(probe, 100.0, 1.2)


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_children_once_and_clips_them():
    parent = Span(1, None, "run", 0.0, 10.0)
    children = [Span(2, 1, "a", 1.0, 4.0), Span(3, 1, "b", 3.0, 5.0),
                Span(4, 1, "c", 9.0, 12.0)]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time(parent, []) == 10.0


def test_tracer_nests_spans_and_children_partition_the_parent():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = tracer.wrap("leaf", leaf)
    with tracer.span("run"):
        traced_leaf()
        with tracer.span("stage"):
            traced_leaf()
    run = tracer.named("run")[0]
    children = tracer.children(run)
    assert sorted(c.name for c in children) == ["leaf", "stage"]
    stage = tracer.named("stage")[0]
    assert [c.name for c in tracer.children(stage)] == ["leaf"]
    own = self_time(run, children)
    assert own >= 0
    assert sum(c.duration for c in children) + own == pytest.approx(run.duration)
    records = {r["name"]: r for r in tracer.as_records()}
    assert records["run"]["self_s"] == pytest.approx(own)
    assert records["stage"]["parent"] == run.id


def test_patched_restores_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "g"

    with harness.patched(Child, "f", lambda self: "patched"), \
            harness.patched(Child, "g", lambda self: "patched"):
        assert Child().f() == Child().g() == "patched"
    assert Child().f() == "base" and Child().g() == "g"
    assert "f" not in vars(Child)


def test_host_stamp_reads_the_affinity_mask():
    stamp = harness.host_stamp()
    assert stamp["cpus"] == len(os.sched_getaffinity(0))
    assert set(stamp) >= {"blas", "blas_threads_env", "numpy", "python",
                          "pythonhashseed_set"}


# --------------------------------------------------------------------------- #
# The command and BENCHMARK.json
# --------------------------------------------------------------------------- #
def test_benchmark_json_matches_the_metric_tables():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


# --------------------------------------------------------------------------- #
# Serving correctness: probes are bit-identical to offline inference
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    from repro.core import Controller, ControllerConfig, Task
    from repro.distill import EndModelConfig
    from repro.kg import GraphSpec
    from repro.modules import MultiTaskConfig, MultiTaskModule
    from repro.serve import export_end_model
    from repro.synth import WorldSpec
    from repro.workspace import Workspace, WorkspaceSpec

    workspace = Workspace(WorkspaceSpec(
        graph=GraphSpec(num_filler_concepts=300, seed=0),
        world=WorldSpec(seed=0), scads_images_per_concept=30, seed=0))
    split = workspace.make_task_split("fmd", shots=5, split_seed=0)
    task = Task.from_split(split, scads=workspace.scads,
                           backbone=workspace.backbone("resnet50"),
                           wanted_num_related_class=3,
                           images_per_related_class=8)
    result = Controller(
        modules=[MultiTaskModule(MultiTaskConfig(epochs=3))],
        config=ControllerConfig(end_model=EndModelConfig(epochs=3),
                                dtype="float32")).run(task)
    path = export_end_model(result, str(tmp_path_factory.mktemp("art") / "fmd"))
    return path, workspace


@pytest.mark.parametrize("fleet", [False, True], ids=["inproc", "fleet"])
def test_probes_are_bit_identical_to_offline_inference(artifact, fleet):
    import serving
    from repro.serve import load_servable

    path, workspace = artifact
    source = serving.RowSource(workspace, 7, serving.PROFILES["serve_inproc"])
    warm, _ = source.draw(serving.WARM_ROWS)
    rows, _ = source.draw(24)
    expected = load_servable(path).predict_proba(rows,
                                                 batch_size=serving.QUANTUM)
    if fleet:
        target = serving.FleetTarget(path, warm, clients=2)
        try:
            served = target.probe(rows)
        finally:
            survivors = target.teardown()
        assert survivors == []
    else:
        target = serving.InProcTarget(path, warm)
        try:
            served = target.probe(rows)
        finally:
            target.close()
    assert served.dtype == expected.dtype
    np.testing.assert_array_equal(served, expected)
