"""Measurement machinery shared by the perfbench workloads.

Everything here is independent of the ``repro`` package: percentiles with
a minimum-tail rule, in-memory spans and their self time, an open-loop load
generator that times every request from its due time, a geometric rate
ladder with backlog detection, process memory readings and the host stamp.
``test_harness.py`` covers this module.
"""

from __future__ import annotations

import itertools
import math
import os
import platform
import statistics
import sys
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


# --------------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------------- #
def samples_needed(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples above the
    ``q``-th percentile."""
    n = math.ceil(MIN_BEYOND / (1.0 - q / 100.0))
    while n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`InsufficientSamples` unless at least ``MIN_BEYOND``
    samples lie above the returned rank.  ``inf`` entries (failed
    operations) sort last, so they count against the percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n == 0 or n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples leaves {max(0, n - rank)} beyond it; "
            f"{samples_needed(q)} samples are needed")
    return float(ordered[rank - 1])


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans held in memory: name, start, end and the parent span's id.

    Nesting is tracked per thread, so a span opened inside another span on
    the same thread records it as its parent.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None) -> Span:
        with self._lock:
            span = Span(next(self._ids), parent, name, start, end)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, parent, name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def children(self, span: Span) -> List[Span]:
        return [child for child in self.spans if child.parent == span.id]

    def as_records(self) -> List[dict]:
        """Every span with its self time, ready to be written out."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end,
                 "self_s": self_time(s, children.get(s.id, []))}
                for s in self.spans]


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part of it its children cover.

    Children are clipped to the span and overlapping children are counted
    once, so the result is never negative.
    """
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


@contextmanager
def patched(owner, attribute: str, replacement):
    """Set ``owner.attribute`` for the scope, then restore it exactly (an
    attribute ``owner`` only inherited is deleted again)."""
    had_own = attribute in vars(owner)
    original = vars(owner)[attribute] if had_own else None
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)


# --------------------------------------------------------------------------- #
# Open-loop load generation
# --------------------------------------------------------------------------- #
def poisson_schedule(rate: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from the start) of ``count`` Poisson arrivals.

    The exponential gaps are rescaled so the schedule's mean rate is exactly
    ``rate``; the burstiness of the gaps is kept.
    """
    gaps = rng.exponential(1.0, size=count)
    gaps *= count / (rate * gaps.sum())
    return np.cumsum(gaps) - gaps[0]


@dataclass
class LoadResult:
    """Per-request timings of one open-loop phase, in seconds from its start."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    #: name of each failure's exception type, for the record
    errors: Dict[str, int] = field(default_factory=dict)
    #: ``time.perf_counter()`` at the phase start (all times are relative)
    t0: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def failed(self) -> int:
        return int((~self.ok).sum())

    def latencies_ms(self) -> np.ndarray:
        """Latency from each request's due time; failures read ``inf``."""
        latency = (self.done - self.due) * 1e3
        return np.where(self.ok, latency, np.inf)

    def lag_ms(self) -> np.ndarray:
        """How late each request left the generator."""
        return (self.sent - self.due) * 1e3

    def achieved_rate(self) -> float:
        """Completed requests per second, first due time to last completion."""
        span = float(np.nanmax(self.done)) - float(self.due[0])
        return float(self.ok.sum()) / span if span > 0 else float("nan")

    def drain_ms(self) -> float:
        """Last completion after the last due time."""
        return (float(np.nanmax(self.done)) - float(self.due[-1])) * 1e3


def _wait_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def run_open_loop(due: np.ndarray, submit: Callable[[int], Future],
                  drain_timeout: float = 10.0) -> LoadResult:
    """Drive ``submit(i)`` for every due time from the calling thread.

    ``submit`` must return a future; a request is done when its future
    resolves.  The generator never waits for a reply before sending the
    next request, so a stall in the system shows as latency on every
    request due during it.
    """
    n = len(due)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    errors: Dict[str, int] = {}
    lock = threading.Lock()
    remaining = threading.Semaphore(0)

    def count_error(error: BaseException) -> None:
        with lock:
            name = type(error).__name__
            errors[name] = errors.get(name, 0) + 1

    def finisher(index: int):
        def on_done(future: Future) -> None:
            done[index] = time.perf_counter() - t0
            error = future.exception()
            if error is None:
                ok[index] = True
            else:
                count_error(error)
            remaining.release()
        return on_done

    t0 = time.perf_counter()
    for index in range(n):
        _wait_until(t0 + due[index])
        sent[index] = time.perf_counter() - t0
        try:
            future = submit(index)
        except Exception as error:  # a refused request counts as failed
            done[index] = sent[index]
            count_error(error)
            remaining.release()
            continue
        future.add_done_callback(finisher(index))
    deadline = time.perf_counter() + drain_timeout
    for _ in range(n):
        if not remaining.acquire(timeout=max(0.0, deadline - time.perf_counter())):
            count_error(TimeoutError())
            break
    with lock:
        return LoadResult(due=due, sent=sent, done=done.copy(), ok=ok.copy(),
                          errors=dict(errors), t0=t0)


def run_open_loop_blocking(due: np.ndarray, send: Callable[[int, int], None],
                           clients: int,
                           drain_timeout: float = 10.0) -> LoadResult:
    """Open loop over ``clients`` threads that each send one request at a time.

    ``send(client, i)`` performs request ``i`` and returns when its reply
    has arrived; it raises on failure.  A request due while every client
    is busy leaves late, and that lateness is part of its latency.
    """
    n = len(due)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    errors: Dict[str, int] = {}
    lock = threading.Lock()
    indices = iter(range(n))
    t0 = time.perf_counter()
    stop_at = t0 + float(due[-1]) + drain_timeout

    def worker(client: int) -> None:
        while True:
            with lock:
                index = next(indices, None)
            if index is None:
                return
            if time.perf_counter() > stop_at:
                with lock:
                    errors["TimeoutError"] = errors.get("TimeoutError", 0) + 1
                continue
            _wait_until(t0 + due[index])
            sent[index] = time.perf_counter() - t0
            try:
                send(client, index)
            except Exception as error:
                with lock:
                    name = type(error).__name__
                    errors[name] = errors.get(name, 0) + 1
            else:
                ok[index] = True
            done[index] = time.perf_counter() - t0

    threads = [threading.Thread(target=worker, args=(client,),
                                name=f"perfbench-client-{client}")
               for client in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return LoadResult(due=due, sent=sent, done=done, ok=ok, errors=errors,
                      t0=t0)


# --------------------------------------------------------------------------- #
# Latency limits and the rate ladder
# --------------------------------------------------------------------------- #
@dataclass
class Rung:
    rate: float
    result: LoadResult
    tail_ms: float
    lag_ms: float
    drain_ms: float
    meets: bool


def judge(rate: float, result: LoadResult, limit_ms: float,
          q: float = 99.0) -> Rung:
    """Does one phase meet the limit without a growing backlog?

    It meets it when the ``q``-th percentile latency (failures counting as
    missing the limit) is within ``limit_ms``, the generator kept to its
    schedule (``q``-th percentile lag within the limit), the last request
    completed within the limit of the last due time, and nothing failed.
    """
    tail = percentile(result.latencies_ms(), q)
    lag = percentile(result.lag_ms(), q)
    drain = result.drain_ms() if result.ok.any() else float("inf")
    meets = (tail <= limit_ms and lag <= limit_ms and drain <= limit_ms
             and result.failed == 0)
    return Rung(rate, result, tail, lag, drain, meets)


def climb_ladder(probe: Callable[[float], Rung], start: float, ratio: float,
                 max_rungs: int = 40, refinements: int = 0,
                 attempts: int = 2) -> Optional[Rung]:
    """Highest rate on the geometric ladder ``start * ratio**k`` that meets
    its limit.

    Climbs while rungs pass; if ``start`` itself fails, descends instead.
    A rung that fails is tried again, up to ``attempts`` times in all, so
    one stall of the host does not end the climb; the first attempt that
    meets the limit counts.  ``refinements`` then bisects (geometrically)
    between the highest passing and the lowest failing rung that many
    times.  Returns ``None`` when no rung within ``max_rungs`` passes.
    """
    if not 1.0 < ratio <= 1.1:
        raise ValueError("ladder steps must be more than 0% and at most 10% apart")

    def attempt(rate: float) -> Rung:
        for _ in range(attempts):
            rung = probe(rate)
            if rung.meets:
                break
        return rung

    best: Optional[Rung] = None
    failed_at: Optional[float] = None
    rung = attempt(start)
    if rung.meets:
        best = rung
        for _ in range(max_rungs):
            rung = attempt(best.rate * ratio)
            if not rung.meets:
                failed_at = rung.rate
                break
            best = rung
    else:
        failed_at = start
        rate = start
        for _ in range(max_rungs):
            rate /= ratio
            rung = attempt(rate)
            if rung.meets:
                best = rung
                break
            failed_at = rate
    if best is None or failed_at is None:
        return best
    for _ in range(refinements):
        rung = attempt(math.sqrt(best.rate * failed_at))
        if rung.meets:
            best = rung
        else:
            failed_at = rung.rate
    return best


# --------------------------------------------------------------------------- #
# Processes and host
# --------------------------------------------------------------------------- #
def _status_kib(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def peak_rss_mib(pids: Iterable[int] = ()) -> float:
    """Summed peak resident set size (VmHWM) of ``pids``, or of this
    process when none are given."""
    pids = list(pids) or [os.getpid()]
    return sum(_status_kib(pid, "VmHWM") for pid in pids) / 1024.0


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` in the process tree."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def alive(pid: int) -> bool:
    """Is ``pid`` a running (not zombie) process?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def blas_library() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except Exception:   # older NumPy: no dict mode; the name is optional
        return "unknown"


def host_stamp() -> dict:
    """The runtime this record was measured under, read fresh every run."""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "blas": blas_library(),
        "blas_threads_env": {name: os.environ[name] for name in _BLAS_ENV
                             if name in os.environ},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "pythonhashseed_set": "PYTHONHASHSEED" in os.environ,
        "platform": sys.platform,
    }


# --------------------------------------------------------------------------- #
# Run outcome
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    #: end-to-end metrics, always measured with tracing off
    end_to_end: Dict[str, float]
    #: per-layer metrics of the traced run (empty when tracing is off)
    per_layer: Dict[str, float]
    attempted: int
    failed: int
    #: (check name, passed, detail) for every correctness check made
    checks: List[tuple] = field(default_factory=list)
    #: anything else worth keeping in the record
    details: dict = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(passed), detail))
        return bool(passed)

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)
