"""Whole-graph capture/replay executor for static training loops.

The eager engine rebuilds the autograd tape on every training step: each op
allocates a :class:`~repro.nn.Tensor`, a backward closure, and fresh gradient
arrays, and ``backward`` re-walks the graph.  For the training loops in this
reproduction the graph shape never changes between steps — same model, same
loss, same batch shape — so all of that per-step Python work is redundant.

:class:`GraphReplay` removes it.  The first time a step signature is seen it
runs the ordinary eager step while *tracing* it: a thread-local hook records
every ``Module.__call__`` (``("module", module, input, output)``) and every
op-table call (``("op", op, state, output, operands)``, see
:mod:`repro.nn.ops`).  The compiler walks the records backward from the loss
root, resolving each tensor to the op that produced it or to a declared step
input, and emits one generic node per op in the original execution order:
the entry's forward kernel and VJPs, bound to a private copy of the capture
step's op state, so every buffer is preallocated with the shape and dtype
eager produced.  The plan is a general DAG, not just a linear chain: it
supports fan-out (one activation consumed by several consumers), fan-in
(summed / weighted-sum losses), and weight sharing (the same layer applied
to several inputs, as in FixMatch's two-view consistency step).  Each VJP
deposit is wired to its target in backward-execution order: the first
contribution writes the target, later ones write a private scratch buffer
that is then added in — exactly the eager write-then-add accumulation.
Every later step with the same signature replays the kernels on the rebound
inputs: no tensors, no closures, no tape, no topological sort.  Eager and
replay run the same kernels, so replayed training is bit-identical to eager
training (asserted by ``tests/nn/test_replay.py``,
``tests/nn/test_replay_dag.py`` and, op by op, ``tests/nn/test_op_table.py``).

The compiler knows no op by name: adding a replayable op is one
:class:`~repro.nn.ops.Op` entry (forward kernel, one VJP per input and
parameter, the names of its inputs, parameters, step-input data and buffers,
and for a layer's op the layer attributes the signature must guard) plus the
eager call that runs it through :func:`~repro.nn.tensor.apply_op`.  A layer
running it names the entry in its ``op`` class attribute; the structural
fingerprint reads the entry's ``guard`` from there.

Fallback rules (checked on *every* step, before replaying):

* replay disabled (``TrainConfig.replay=False``, ``use_graph_replay(False)``,
  or ``seed_compat_mode()``), fused ops disabled, or gradients disabled
  → eager step;
* batch shape/dtype or target shape/dtype changed → separate plan per
  signature (the capture step for a new signature runs eagerly);
* model structure changed — layer added/removed/replaced, parameter shape,
  dtype or ``requires_grad`` changed, a dropout or batch-norm layer's mode
  flipped, batch-norm momentum/eps/running-stat dtype changed, the
  optimizer's parameter list changed, or the engine default dtype changed →
  recapture (an eager step) under the new signature; stale plans are never
  replayed;
* unsupported structure (tensor math outside the traced op set, constants
  created inside the step function, loss targets that are not step inputs)
  → the signature is marked unsupported and every step with it runs eagerly,
  with the reason recorded in :attr:`ReplayStats.fallbacks`.

Supported ops are the table's: ``Linear`` (2-D fused path), ``ReLU``,
``Tanh``, ``Dropout`` (the training-mode mask is drawn from the layer's own
RNG on every step, so the RNG stream stays aligned; eval mode and
``Identity`` return their input and compile to nothing), ``BatchNorm1d``
(train mode updates the running stats exactly as eager does, eval mode
reads them live), tensor ``+`` and ``*`` (summed or weighted-sum losses),
and the fused losses ``cross_entropy`` (optionally per-sample weighted),
``soft_cross_entropy`` and ``l2_loss`` / ``mse_loss``.  Optimizer updates
reuse ``optimizer.step()`` itself — gradients are written into preallocated
buffers (the optimizer's flat gradient views when available) and bound to
``param.grad``, so SGD momentum and Adam state evolve exactly as in eager
mode.

Beyond the classic ``step(x, y)`` chain API, the executor exposes:

* :meth:`GraphReplay.step_fn` — capture/replay an arbitrary step *function*
  ``fn(model, batch)`` returning a scalar loss Tensor (FixMatch's two-view
  consistency step runs through this);
* :meth:`GraphReplay.forward` — a compiled inference forward returning raw
  logits (FixMatch's pseudo-label view);
* :meth:`GraphReplay.eval_loss` — a compiled forward + loss value;
* :meth:`GraphReplay.run_epoch` — the fused-epoch API: the structural
  fingerprint is checked once per (shape, dtype) signature per epoch instead
  of per step, amortizing the per-step guard across a whole epoch.  The
  caller promises not to mutate the model structure mid-epoch (the training
  loops in :mod:`repro.nn.training` cannot).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import functional as F
from .modules import Module, trace_module_calls
from .optim import Optimizer
from .tensor import (Tensor, fused_ops_enabled, get_default_dtype,
                     graph_replay_enabled, inference_mode, is_grad_enabled)

__all__ = ["GraphReplay", "ReplayStats", "ReplayUnsupported",
           "collect_replay_stats"]


class ReplayUnsupported(RuntimeError):
    """Raised during capture when a traced step cannot be compiled."""


_LOSS_FNS: Dict[str, Callable] = {
    "cross_entropy": F.cross_entropy,
    "soft_cross_entropy": F.soft_cross_entropy,
    "l2": F.l2_loss,
}

# --------------------------------------------------------------------------- #
# Stats
# --------------------------------------------------------------------------- #


class ReplayStats:
    """Counters exposed for tests and diagnostics.

    ``captures`` counts compile steps (which run eagerly exactly once per
    signature), ``replays`` counts compiled-kernel steps, and
    ``eager_steps`` counts every step that fell back to the eager engine,
    with the reasons tallied in :attr:`fallbacks` (reason → count).  On a
    static loop with replay enabled, ``eager_steps`` — and therefore
    ``fallback_count`` — must be zero; the pipeline regression tests assert
    exactly that.  Increments are lock-protected because the collection
    scope is process-global: a loop on any thread of the process (a
    training thread inside a serving process, say) reports into it.
    """

    def __init__(self) -> None:
        self.captures = 0
        self.replays = 0
        self.eager_steps = 0
        self.fallbacks: Dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def total(self) -> int:
        return self.captures + self.replays + self.eager_steps

    @property
    def fallback_count(self) -> int:
        return sum(self.fallbacks.values())

    def add_capture(self) -> None:
        with self._lock:
            self.captures += 1

    def add_replay(self) -> None:
        with self._lock:
            self.replays += 1

    def add_eager(self, reason: str) -> None:
        with self._lock:
            self.eager_steps += 1
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ReplayStats(captures={self.captures}, replays={self.replays}, "
                f"eager_steps={self.eager_steps}, fallbacks={self.fallbacks})")


#: ambient stats sinks (see :func:`collect_replay_stats`); appended to every
#: GraphReplay created while the scope is active
_AMBIENT_SINKS: List[ReplayStats] = []


@contextmanager
def collect_replay_stats(stats: ReplayStats):
    """Collect replay counters from every stepper created in this scope.

    The :class:`~repro.core.Controller` wraps its run in this scope when
    ``ControllerConfig.replay_stats`` is set, so one counter aggregates every
    training loop in the pipeline (module fine-tuning, the ZSL-KG pretrain,
    FixMatch's two-view step, end-model distillation).  The scope is
    process-global: a stepper created on any thread while it is open
    reports here.
    """
    _AMBIENT_SINKS.append(stats)
    try:
        yield stats
    finally:
        _AMBIENT_SINKS.remove(stats)


# --------------------------------------------------------------------------- #
# Compiled nodes
# --------------------------------------------------------------------------- #


class _InputNode:
    """A step input, rebound on every replay (cast to the captured dtype)."""

    __slots__ = ("key", "cast_dtype")

    def __init__(self, key: str, cast_dtype):
        self.key = key
        self.cast_dtype = cast_dtype


class _Node:
    """One traced op: its table entry and a private :class:`OpState`.

    The state starts as a copy of the capture step's state, so every buffer
    the forward kernel wrote is preallocated with the shape and dtype eager
    produced.  Parameters are the layer's live tensors (read through
    ``.data``), so in-place updates and ``load_state_dict`` swaps need no
    recompile.  ``srcs`` pairs each input slot with its producer node (or
    :class:`_InputNode`) and whether eager tracked its gradient.
    """

    __slots__ = ("op", "s", "index", "requires_grad", "grad", "srcs")

    def __init__(self, op, eager, index: int, requires_grad: bool):
        self.op = op
        self.s = op.State()
        self.s.__dict__.update(
            (name, value.copy() if isinstance(value, np.ndarray) else value)
            for name, value in vars(eager).items() if name not in op.inputs)
        self.index = index
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.srcs: List[tuple] = []


# --------------------------------------------------------------------------- #
# Structural fingerprint (the per-step signature guard)
# --------------------------------------------------------------------------- #


def _model_fingerprint(module: Module) -> tuple:
    """A cheap structural identity of the model, rebuilt on every step.

    Captures the identity and type of every submodule in attribute order,
    plus, for each layer that runs an op-table entry, the attributes the
    entry's ``guard`` names: a tensor contributes its identity, shape, dtype
    and ``requires_grad`` flag, an array (batch-norm running stats) its
    dtype, anything else its value (modes, probabilities, momentum, eps).
    Any mutation a compiled plan depends on — adding a layer, replacing a
    head, freezing a parameter, flipping a layer's mode, a dtype change —
    changes the fingerprint and forces a recapture, never a replay of stale
    kernels.
    """
    out = []
    # Iterative depth-first walk in attribute order (per-step hot path: a
    # Python-level recursion here costs ~1 us per submodule per step).
    stack = [module]
    while stack:
        m = stack.pop()
        t = type(m)
        op = t.op
        if op is None or not op.guard:
            out.append((id(m), t))
        else:
            key = [id(m), t]
            for name in op.guard:
                v = getattr(m, name)
                if isinstance(v, Tensor):
                    v = (id(v), v.data.shape, v.data.dtype, v.requires_grad)
                elif isinstance(v, np.ndarray):
                    v = v.dtype
                key.append(v)
            out.append(tuple(key))
        children = []
        for value in m.__dict__.values():
            if isinstance(value, Module):
                children.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        children.append(item)
        if children:
            stack.extend(reversed(children))
    return tuple(out)


# --------------------------------------------------------------------------- #
# The DAG compiler
# --------------------------------------------------------------------------- #


class _CompiledPlan:
    """A compiled kernel DAG: forward in trace order, backward reversed.

    ``forwards`` holds ``(kernel, state)`` pairs; ``backwards`` holds
    ``(state, grad, deposits)`` per node, each deposit a
    ``(vjp, target, scratch, param)`` tuple: the VJP writes the target when
    ``scratch`` is None, and otherwise writes the scratch buffer, which is
    then added into the target.  ``param`` (or None) is the tensor whose
    ``.grad`` the target is bound to.
    """

    __slots__ = ("_forwards", "_backwards", "_input_sites", "_clear_grads",
                 "root", "optimizer", "pins")

    def __init__(self, forwards, backwards, input_sites, clear_grads, root,
                 optimizer):
        self._forwards = forwards
        self._backwards = backwards
        self._input_sites = input_sites
        self._clear_grads = clear_grads
        self.root = root
        self.optimizer = optimizer
        self.pins = None

    def _bind(self, inputs: Dict[str, np.ndarray]) -> None:
        for state, attr, key, cast_dtype in self._input_sites:
            arr = inputs[key]
            if arr.dtype != cast_dtype:
                # The eager path casts through ``Tensor(x)``; match it.
                arr = arr.astype(cast_dtype)
            setattr(state, attr, arr)

    def _forward(self, inputs: Dict[str, np.ndarray],
                 need_value: bool) -> None:
        self._bind(inputs)
        self.root.need_value = need_value
        for forward, state in self._forwards:
            forward(state)

    def run(self, inputs: Dict[str, np.ndarray],
            need_value: bool = True) -> Optional[float]:
        self._forward(inputs, need_value)
        value = float(self.root.out) if need_value else None
        for state, grad, deposits in self._backwards:
            for vjp, target, scratch, param in deposits:
                if scratch is None:
                    vjp(state, grad, target)
                else:
                    target += vjp(state, grad, scratch)
                if param is not None:
                    param.grad = target
        # Optimizer parameters this plan computes no gradient for must not
        # advance: eager's zero_grad() leaves them at None, so clear any
        # binding left over from an earlier step with different coverage.
        for param in self._clear_grads:
            param.grad = None
        self.optimizer.step()
        return value

    def run_eval(self, inputs: Dict[str, np.ndarray]) -> float:
        """Forward + loss value only (the compiled inference pass)."""
        self._forward(inputs, True)
        return float(self.root.out)

    def run_forward(self, inputs: Dict[str, np.ndarray]) -> np.ndarray:
        """Forward only; returns the root output buffer (valid until the
        next call on this plan)."""
        self._forward(inputs, True)
        return self.root.out


def _compile(records: List[tuple], root: Tensor,
             input_keys: Dict[int, str], optimizer: Optional[Optimizer],
             train: bool) -> _CompiledPlan:
    """Build a replay plan from one traced eager step, or raise
    :class:`ReplayUnsupported`."""
    # ---- producer map: which op made each tensor ----------------------- #
    # Layer ops must run inside their layer's call (so their parameters are
    # the layer's, covered by the fingerprint); ``claimed`` maps each such
    # layer call's output to the layer's name.  Identity and eval-mode
    # dropout return their input and claim nothing.
    prod: Dict[int, Tuple[int, tuple]] = {}
    claimed: Dict[int, str] = {}
    for idx, rec in enumerate(records):
        if rec[0] == "op":
            prod[id(rec[3])] = (idx, rec)
        elif type(rec[1]).op is not None and rec[3] is not rec[2]:
            claimed[id(rec[3])] = type(rec[1]).__name__

    nodes: Dict[int, object] = {}
    built: List[_Node] = []
    input_sites: List[tuple] = []

    def wire(node: _Node, attr: str, src) -> None:
        if isinstance(src, _InputNode):
            input_sites.append((node.s, attr, src.key, src.cast_dtype))
        else:
            setattr(node.s, attr, src.s.out)

    def key_for(obj, what: str) -> str:
        oid = id(obj)
        key = input_keys.get(oid)
        if key is None:
            if oid in input_keys:
                raise ReplayUnsupported(
                    f"{what} aliases an array bound to multiple step inputs")
            raise ReplayUnsupported(f"{what} is not a step input")
        return key

    def resolve(t):
        if not isinstance(t, Tensor):
            raise ReplayUnsupported("non-tensor operand in the traced graph")
        tid = id(t)
        node = nodes.get(tid)
        if node is not None:
            return node
        key = input_keys.get(tid)
        if key is not None:
            node = _InputNode(key, t.data.dtype)
            nodes[tid] = node
            return node
        if tid in input_keys:  # registered but aliased (None entry)
            raise ReplayUnsupported(
                "the same array is bound to multiple step inputs")
        entry = prod.get(tid)
        if entry is None:
            raise ReplayUnsupported(
                "tensor produced outside the replayable op set "
                "(custom tensor math or a constant created in the step?)")
        idx, (_, op, eager, out, operands) = entry
        if op.guard is not None and tid not in claimed:
            raise ReplayUnsupported(f"{op.name} called outside its layer")
        node = _Node(op, eager, idx, bool(out.requires_grad) and train)
        for name, operand in zip(op.inputs, operands):
            src = resolve(operand)
            wire(node, name, src)
            node.srcs.append((src, operand.requires_grad))
        for name in op.data:
            value = getattr(eager, name)
            if value is not None:
                input_sites.append((node.s, name,
                                    key_for(value, f"{op.name} {name}"),
                                    np.asarray(value).dtype))
        nodes[tid] = node
        built.append(node)
        return node

    root_node = resolve(root)
    if isinstance(root_node, _InputNode) or not built:
        raise ReplayUnsupported("traced graph contains no replayable ops")
    if train and not root_node.requires_grad:
        raise ReplayUnsupported("loss does not require gradients")

    # Every traced layer call must be reachable from the root: a call the
    # plan would skip could have side effects (dropout RNG draws, batch-norm
    # running stats) that eager execution performs.
    for tid, layer in claimed.items():
        if tid not in nodes:
            raise ReplayUnsupported(
                f"traced {layer} call is not reachable from the loss")

    built.sort(key=lambda n: n.index)
    forwards = [(node.op.forward, node.s) for node in built]

    backwards: List[tuple] = []
    # Gradient targets by the id of the node or parameter they belong to.
    targets: Dict[int, np.ndarray] = {}
    if train:
        # Gradient buffers: one per node that participates in the backward.
        for node in built:
            if node.requires_grad:
                node.grad = (np.ones_like(node.s.out) if node is root_node
                             else np.empty_like(node.s.out))

        def deposit(vjp, owner, target, param=None) -> tuple:
            # Deposit wiring in backward-execution order: the first
            # contribution to each target writes it, later ones accumulate
            # through a private scratch buffer — exactly the eager engine's
            # copy-then-add ordering.
            acc = id(owner) in targets
            target = targets.setdefault(id(owner), target)
            return (vjp, target, np.empty_like(target) if acc else None,
                    param)

        def param_target(param) -> np.ndarray:
            target = (optimizer.grad_view_for(param)
                      if optimizer is not None else None)
            return target if target is not None else np.empty_like(param.data)

        for node in reversed(built):
            if not node.requires_grad:
                continue
            op = node.op
            deposits = []
            for (src, src_rg), vjp in zip(node.srcs, op.vjps):
                if src_rg and not isinstance(src, _InputNode):
                    deposits.append(deposit(vjp, src, src.grad))
            for name, vjp in zip(op.params, op.vjps[len(op.inputs):]):
                param = getattr(node.s, name)
                if param is not None and param.requires_grad:
                    deposits.append(deposit(vjp, param, param_target(param),
                                            param))
            backwards.append((node.s, node.grad, tuple(deposits)))

    clear_grads: tuple = ()
    if train and optimizer is not None:
        clear_grads = tuple(p for p in optimizer.parameters
                            if id(p) not in targets)

    return _CompiledPlan(forwards, backwards, input_sites, clear_grads,
                         root_node.s, optimizer)


# --------------------------------------------------------------------------- #
# Public executor
# --------------------------------------------------------------------------- #


class _UnsupportedPlan:
    """Negative cache entry: this signature cannot be compiled.

    Pins the traced modules (and the step function) so their ids — which
    participate in the signature — cannot be recycled for different objects
    while the entry lives.  Carries the reason so every later eager step
    under this signature is tallied against it.
    """

    __slots__ = ("pins", "reason")

    def __init__(self, pins, reason: str):
        self.pins = pins
        self.reason = reason


def _wrap_inputs(inputs: Dict[str, np.ndarray], tensor_keys=()):
    """Wrap float inputs as Tensors (the eager ``Tensor(x)`` cast) and pass
    integer/bool arrays through raw; return the bound dict plus the id→key
    map the compiler uses to resolve graph inputs.

    Both the Tensor and its ``.data`` array are keyed, so a step function
    may hand ``batch["w"].data`` to a loss as targets/sample-weights and
    still resolve.  Keys in ``tensor_keys`` are wrapped regardless of dtype
    — the chain APIs (``step``/``eval_loss``/``forward``) use this for the
    model input so an integer feature array gets the exact ``Tensor(x)``
    cast the eager step applies.
    """
    bound: Dict[str, object] = {}
    ids: Dict[int, Optional[str]] = {}

    def register(obj, key):
        # The same array bound under two keys is ambiguous: the compiler
        # could not tell which key a traced use belongs to, and a later
        # replay may rebind the keys to different arrays.  A None entry
        # marks the id as aliased; resolution then rejects the capture
        # (eager fallback, which handles aliasing naturally).
        ids[id(obj)] = None if id(obj) in ids else key

    for key, arr in inputs.items():
        if arr.dtype.kind == "f" or key in tensor_keys:
            t = Tensor(arr)
            bound[key] = t
            register(t, key)
            register(t.data, key)
        else:
            bound[key] = arr
            register(arr, key)
    return bound, ids


#: plans cached per executor; beyond this many distinct signatures the
#: executor stops compiling and runs eager (a shape-churning workload would
#: otherwise accumulate buffers without ever amortizing a capture)
_MAX_PLANS = 16

#: run_epoch marker value: this shape signature fell back this epoch
_R_DISABLED = "replay_disabled"


class GraphReplay:
    """Capture/replay stepper for one ``(model, loss, optimizer)`` loop.

    ``step(x, y)`` performs one full training step — forward, loss, backward,
    optimizer update — and returns the loss as a float; ``step_fn(fn, inputs)``
    does the same for an arbitrary traced step function (e.g. FixMatch's
    two-view consistency step).  The first step for each signature runs
    eagerly (tracing the graph); subsequent steps replay compiled NumPy
    kernels.  Every fallback rule in the module docstring is re-checked per
    step, so the executor is always safe to leave on.

    The learning-rate schedule lives outside: callers keep invoking
    ``scheduler.step()`` before each ``step`` exactly as in the eager loop
    (the replayed update reads ``optimizer.lr`` live).

    ``stats`` may be a shared :class:`ReplayStats` (e.g.
    ``TrainConfig.replay_stats``); ambient sinks registered through
    :func:`collect_replay_stats` at construction time are updated too.
    """

    def __init__(self, model: Module, optimizer: Optimizer,
                 loss: str = "cross_entropy",
                 enabled: Optional[bool] = None,
                 stats: Optional[ReplayStats] = None):
        if loss not in _LOSS_FNS:
            raise ValueError(f"unknown replay loss {loss!r}; "
                             f"known: {sorted(_LOSS_FNS)}")
        self.model = model
        self.optimizer = optimizer
        self.loss_kind = loss
        self._loss_fn = _LOSS_FNS[loss]
        self._enabled = enabled
        self._plans: Dict[tuple, object] = {}
        self._last_sig: Optional[tuple] = None
        self._last_plan: Optional[_CompiledPlan] = None
        #: outcome of the most recent ``step()``: the plan it used, or the
        #: eager-fallback reason string (consumed by ``run_epoch`` so the
        #: fused-epoch fast path never recomputes the fingerprint)
        self._last_outcome: object = _R_DISABLED
        own = stats if stats is not None else ReplayStats()
        # Dedupe by identity: the same counter may arrive both explicitly
        # (TrainConfig.replay_stats) and ambiently (collect_replay_stats);
        # it must tick once per event, not once per registration.
        sinks = [own]
        for sink in _AMBIENT_SINKS:
            if all(sink is not existing for existing in sinks):
                sinks.append(sink)
        self._sinks = tuple(sinks)
        self.stats = own

        loss_fn = self._loss_fn

        def _chain(model, batch):
            y = batch["y"]
            return loss_fn(model(batch["x"]),
                           y.data if isinstance(y, Tensor) else y)

        def _fwd(model, batch):
            return model(batch["x"])

        self._chain_fn = _chain
        self._fwd_fn = _fwd

    # -- stats ----------------------------------------------------------- #
    def _count_capture(self) -> None:
        for sink in self._sinks:
            sink.add_capture()

    def _count_replay(self) -> None:
        for sink in self._sinks:
            sink.add_replay()

    def _count_eager(self, reason: str) -> None:
        for sink in self._sinks:
            sink.add_eager(reason)

    # -- mode ------------------------------------------------------------ #
    def _replay_on(self, need_grad: bool = True) -> bool:
        enabled = (self._enabled if self._enabled is not None
                   else graph_replay_enabled())
        if not (enabled and fused_ops_enabled()):
            return False
        return is_grad_enabled() if need_grad else True

    # -- eager reference paths ------------------------------------------- #
    def _eager_step(self, x, y, reason: str) -> float:
        self._count_eager(reason)
        logits = self.model(Tensor(x))
        loss = self._loss_fn(logits, y)
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        return loss.item()

    def _eager_fn(self, fn, inputs: Dict[str, np.ndarray],
                  reason: str, tensor_keys=()) -> float:
        self._count_eager(reason)
        bound, _ = _wrap_inputs(inputs, tensor_keys)
        root = fn(self.model, bound)
        self.optimizer.zero_grad()
        root.backward()
        self.optimizer.step()
        return root.item()

    # -- capture --------------------------------------------------------- #
    def _capture_train(self, fn, inputs: Dict[str, np.ndarray],
                       tensor_keys=()):
        """Run one eager step with the op tracer on and compile it.

        The step always completes eagerly — including when compilation
        fails — so the capture step is indistinguishable from a plain eager
        step (same updates, same RNG draws, and ``zero_grad`` clears any
        stale gradient state before buffer-bound gradients take over).
        Returns ``(plan_or_None, pins, loss, reason_or_None)``.
        """
        bound, ids = _wrap_inputs(inputs, tensor_keys)
        records: List[tuple] = []
        with trace_module_calls(records):
            root = fn(self.model, bound)
        if not isinstance(root, Tensor):
            raise TypeError("step function must return a loss Tensor")
        reason = None
        plan = None
        try:
            if root.shape != ():
                raise ReplayUnsupported("step function must return a "
                                        "scalar loss")
            plan = _compile(records, root, ids, self.optimizer, train=True)
        except ReplayUnsupported as exc:
            reason = f"unsupported: {exc}"
        self.optimizer.zero_grad()
        root.backward()
        self.optimizer.step()
        pins = ([rec[1] for rec in records if rec[0] == "module"], fn)
        if plan is not None:
            plan.pins = pins
        return plan, pins, root.item(), reason

    def _capture_no_grad(self, fn, inputs: Dict[str, np.ndarray],
                         tensor_keys=()):
        """Eager inference pass (tape-free) with the tracer on.

        Returns ``(plan_or_None, pins, root_tensor, reason_or_None)``.
        """
        with inference_mode():
            bound, ids = _wrap_inputs(inputs, tensor_keys)
            records: List[tuple] = []
            with trace_module_calls(records):
                root = fn(self.model, bound)
            reason = None
            plan = None
            try:
                plan = _compile(records, root, ids, None, train=False)
            except ReplayUnsupported as exc:
                reason = f"unsupported: {exc}"
            pins = ([rec[1] for rec in records if rec[0] == "module"], fn)
            if plan is not None:
                plan.pins = pins
            return plan, pins, root, reason

    # -- plan-cache dance ------------------------------------------------ #
    def _fingerprint_sig(self) -> tuple:
        return (np.dtype(get_default_dtype()),
                tuple(id(p) for p in self.optimizer.parameters),
                _model_fingerprint(self.model))

    def _resolve(self, sig: tuple):
        """Look up a cached plan for ``sig``: returns the plan, an
        ``_UnsupportedPlan``, or None (uncached)."""
        if sig == self._last_sig:
            return self._last_plan
        plan = self._plans.get(sig)
        if plan is not None and not isinstance(plan, _UnsupportedPlan):
            self._last_sig, self._last_plan = sig, plan
        return plan

    def _resolve_or_capture(self, sig: tuple, fn,
                            inputs: Dict[str, np.ndarray], train: bool,
                            tensor_keys=()):
        """Resolve ``sig`` to a compiled plan, capturing on a cache miss.

        The one plan-cache protocol shared by every entry point.  Returns
        ``(plan, reason, result)``:

        * ``(plan, None, result)`` — fresh capture: the step already ran
          eagerly and ``result`` is its outcome (the loss float for train
          captures, the root Tensor for no-grad captures);
        * ``(plan, None, None)`` — cache hit: the caller replays the plan;
        * ``(None, reason, result)`` — capture failed: the step still ran
          eagerly (``result`` as above) and the signature is now
          negative-cached under ``reason``;
        * ``(None, reason, None)`` — the caller must run its eager path
          (plan cache full, or the signature is negative-cached).
        """
        plan = self._resolve(sig)
        if plan is not None:
            if isinstance(plan, _UnsupportedPlan):
                return None, plan.reason, None
            return plan, None, None
        if len(self._plans) >= _MAX_PLANS:
            return None, "plan_cache_full", None
        capture = self._capture_train if train else self._capture_no_grad
        plan, pins, result, reason = capture(fn, inputs, tensor_keys)
        if plan is None:
            self._plans[sig] = _UnsupportedPlan(pins, reason)
            self._count_eager(reason)
            return None, reason, result
        self._plans[sig] = plan
        self._last_sig, self._last_plan = sig, plan
        self._count_capture()
        return plan, None, result

    # -- the step -------------------------------------------------------- #
    def step(self, x: np.ndarray, y: np.ndarray,
             compute_loss: bool = True) -> Optional[float]:
        """One training step (forward, loss, backward, optimizer update).

        With ``compute_loss=False`` a replayed step elides materializing the
        loss scalar (the gradient does not depend on it) and returns None —
        used by loops that discard the training loss, like the ZSL-KG
        pretrain.  Eager/capture steps still compute and return it.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if not self._replay_on():
            self._last_outcome = _R_DISABLED
            return self._eager_step(x, y, _R_DISABLED)
        return self._step_guarded(x, y, compute_loss, self._fingerprint_sig())

    def _step_guarded(self, x: np.ndarray, y: np.ndarray, compute_loss: bool,
                      fingerprint: tuple) -> Optional[float]:
        """The guarded step given a precomputed structural fingerprint
        (``run_epoch`` computes it once per epoch)."""
        sig = ("train", x.shape, x.dtype, y.shape, y.dtype) + fingerprint
        inputs = {"x": x, "y": y}
        plan, reason, result = self._resolve_or_capture(
            sig, self._chain_fn, inputs, train=True, tensor_keys=("x",))
        self._last_outcome = plan if plan is not None else reason
        if result is not None:
            return result
        if plan is None:
            return self._eager_step(x, y, reason)
        self._count_replay()
        return plan.run(inputs, compute_loss)

    # -- arbitrary step functions ---------------------------------------- #
    def step_fn(self, fn, inputs: Dict[str, np.ndarray],
                compute_loss: bool = True) -> Optional[float]:
        """One training step driven by ``fn(model, batch) -> scalar loss``.

        ``inputs`` maps names to arrays; float arrays are handed to ``fn``
        wrapped as Tensors (exactly the ``Tensor(x)`` cast of an eager
        loop), integer/bool arrays raw.  ``fn`` must be a pure function of
        the model and those inputs — every loss target / sample-weight must
        come from ``inputs`` (pass ``batch["w"].data`` for float targets),
        and any constant folded into the graph (a Python scalar, an array
        created inside ``fn``) makes the step uncompilable and falls back
        to eager.  Keep ``fn`` a single long-lived function: the plan cache
        is keyed on its identity.
        """
        inputs = {k: np.asarray(v) for k, v in inputs.items()}
        if not self._replay_on():
            self._last_outcome = _R_DISABLED
            return self._eager_fn(fn, inputs, _R_DISABLED)
        # Keys are unique, so the sort never compares the shape/dtype parts.
        sig = ("fn", id(fn),
               tuple(sorted([(k, v.shape, v.dtype)
                             for k, v in inputs.items()]))) \
            + self._fingerprint_sig()
        plan, reason, result = self._resolve_or_capture(sig, fn, inputs,
                                                        train=True)
        self._last_outcome = plan if plan is not None else reason
        if result is not None:
            return result
        if plan is None:
            return self._eager_fn(fn, inputs, reason)
        self._count_replay()
        return plan.run(inputs, compute_loss)

    # -- the fused epoch -------------------------------------------------- #
    def run_epoch(self, batches: Iterable, scheduler=None, augment=None,
                  rng=None, compute_loss: bool = True) -> List[Optional[float]]:
        """Run a whole epoch of ``(x, y)`` batches through the executor.

        The structural fingerprint is computed once per epoch: the first
        batch of each distinct (shape, dtype) signature goes through the
        full guard with that shared fingerprint, and later batches with the
        same shapes replay directly with no guard at all — the model cannot
        be mutated from inside this loop, so checking it once per epoch is
        sound.  ``augment`` and ``scheduler`` run inside the loop in the
        same order as the eager epoch (augment → scheduler.step() →
        training step).  Engine-flag changes take effect at epoch
        boundaries on this path.
        """
        losses: List[Optional[float]] = []
        validated: Dict[tuple, object] = {}
        fingerprint: Optional[tuple] = None
        for batch_x, batch_y in batches:
            if augment is not None:
                batch_x = augment(batch_x, rng)
            if scheduler is not None:
                scheduler.step()
            x = np.asarray(batch_x)
            y = np.asarray(batch_y)
            key = (x.shape, x.dtype, y.shape, y.dtype)
            plan = validated.get(key)
            if plan is None:
                if not self._replay_on():
                    self._last_outcome = _R_DISABLED
                    losses.append(self._eager_step(x, y, _R_DISABLED))
                else:
                    if fingerprint is None:
                        fingerprint = self._fingerprint_sig()
                    losses.append(self._step_guarded(x, y, compute_loss,
                                                     fingerprint))
                # Cache what the step resolved to for the rest of the epoch:
                # the compiled plan, or the eager-fallback reason.
                validated[key] = self._last_outcome
            elif isinstance(plan, str):
                losses.append(self._eager_step(x, y, plan))
            else:
                self._count_replay()
                losses.append(plan.run({"x": x, "y": y}, compute_loss))
        return losses

    # -- compiled inference ----------------------------------------------- #
    def _eager_eval(self, x, y, reason: str) -> float:
        self._count_eager(reason)
        with inference_mode():
            return self._loss_fn(self.model(Tensor(x)), y).item()

    def eval_loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Loss of the model on ``(x, y)`` via a compiled inference pass.

        The tape-free equivalent of ``loss_fn(model(Tensor(x)), y).item()``
        under :func:`~repro.nn.tensor.inference_mode`, replayed through
        forward-only kernels.  Same signature guards and eager fallback as
        :meth:`step`; separate plans, so train/eval batch shapes coexist.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if not self._replay_on(need_grad=False):
            return self._eager_eval(x, y, _R_DISABLED)
        sig = ("eval", x.shape, x.dtype, y.shape, y.dtype) \
            + self._fingerprint_sig()
        inputs = {"x": x, "y": y}
        plan, reason, result = self._resolve_or_capture(
            sig, self._chain_fn, inputs, train=False, tensor_keys=("x",))
        if result is not None:
            return result.item()
        if plan is None:
            return self._eager_eval(x, y, reason)
        self._count_replay()
        return plan.run_eval(inputs)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw model outputs on ``x`` via a compiled inference forward.

        The tape-free equivalent of ``model(Tensor(x)).data`` under
        :func:`~repro.nn.tensor.inference_mode` (FixMatch's pseudo-label
        view).  Returns the plan's output buffer: consume it before the
        next call on this stepper.
        """
        x = np.asarray(x)
        if not self._replay_on(need_grad=False):
            self._count_eager(_R_DISABLED)
            with inference_mode():
                return self.model(Tensor(x)).data
        sig = ("fwd", x.shape, x.dtype) + self._fingerprint_sig()
        inputs = {"x": x}
        plan, reason, result = self._resolve_or_capture(
            sig, self._fwd_fn, inputs, train=False, tensor_keys=("x",))
        if result is not None:
            return result.data
        if plan is None:
            self._count_eager(reason)
            with inference_mode():
                return self.model(Tensor(x)).data
        self._count_replay()
        return plan.run_forward(inputs)
