"""The op table: one forward kernel and one VJP per replayable op.

Each :class:`Op` entry is the single definition of an op's math.  Three
consumers derive from it:

* **Eager** (:func:`repro.nn.tensor.apply_op`): ``functional.linear``, the
  fused losses, ``Tensor.relu``/``tanh``/``+``/``*`` and the fused-mode
  ``Dropout``/``BatchNorm1d`` forwards run the kernel on fresh buffers and
  record one tape node whose backward calls the VJPs.
* **Replay** (:mod:`repro.nn.replay`): the compiler builds one generic node
  per traced op, binds its kernels to buffers preallocated from the capture
  step, and wires each VJP to its gradient target.
* **Serving** (:mod:`repro.serve.artifact`): the lock-free compiled forward
  runs the ``linear`` and ``relu`` kernels.

The contract every kernel follows:

* State lives on an :class:`OpState` ``s``: operand arrays (``inputs``),
  parameter tensors read live through ``.data`` (``params``), raw step-input
  arrays such as loss targets (``data``), and scratch/saved ``buffers``.
* A kernel writes each buffer through NumPy's ``out=`` and rebinds it
  (``s.buf = np.f(..., out=s.buf)``).  An unbound buffer reads as None, so
  an eager call allocates fresh arrays; a replay node starts from copies of
  the capture step's arrays (the shape/dtype rule is "what eager produced"),
  and buffers first touched by a VJP are allocated on the first replayed
  step and reused after it.
* ``forward(s)`` leaves the result in ``s.out``.  Losses also honour
  ``s.need_value``: when False only the state the VJP needs is computed.
* ``vjp(s, grad, out)`` returns the gradient for its slot written into
  ``out``; with ``out=None`` it returns a fresh array the caller owns.  The
  replay executor passes the target buffer for the first contribution and a
  private scratch buffer for later ones, which it then adds in — the eager
  engine's write-first, accumulate-after order, bit for bit.

Adding an op is one entry here plus the eager call that runs it through
``apply_op``; a layer that runs it names the entry in its ``op`` attribute.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Op", "OpState", "OPS", "LINEAR", "RELU", "TANH", "DROPOUT",
           "BATCHNORM1D", "ADD", "MUL", "CROSS_ENTROPY", "SOFT_CROSS_ENTROPY",
           "SQUARED_ERROR", "check_label_range"]


class OpState:
    """Operands, parameters and buffers of one op call (or one replay node).

    Deliberately no ``__init__``: callers set fields as attributes, which
    keeps a per-call state as cheap as a bare object.
    """

    #: losses skip the scalar when a replayed caller does not consume it
    need_value = True


class Op:
    """One table entry: a forward kernel and one VJP per differentiable slot.

    ``vjps`` are aligned with ``inputs + params``.  ``guard`` names the
    attributes of the layer that runs the op which a compiled plan depends
    on (the replay signature checks them every step); it is None for ops
    that no layer owns (``add``, ``mul`` and the losses).
    """

    __slots__ = ("name", "forward", "vjps", "inputs", "params", "data",
                 "guard", "State")

    def __init__(self, name: str, forward: Callable, vjps: Sequence[Callable],
                 inputs: Tuple[str, ...] = ("x",),
                 params: Tuple[str, ...] = (), data: Tuple[str, ...] = (),
                 buffers: Tuple[str, ...] = (),
                 guard: Optional[Tuple[str, ...]] = None):
        if len(vjps) != len(inputs) + len(params):
            raise ValueError(f"{name}: one VJP per input and parameter")
        self.name = name
        self.forward = forward
        self.vjps = tuple(vjps)
        self.inputs = inputs
        self.params = params
        self.data = data
        self.guard = guard
        self.State = type(f"{name}_state", (OpState,), dict.fromkeys(buffers))


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the broadcast dimensions so it matches ``shape``.

    NumPy broadcasting implicitly expands dimensions during the forward pass;
    the corresponding backward pass must sum the gradient over those expanded
    dimensions.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _sum_to(d: np.ndarray, shape, out, owned: bool) -> np.ndarray:
    """``d`` summed down to ``shape``, written into ``out`` (or returned as an
    array the caller owns when ``out`` is None)."""
    if d.shape != shape:
        d, owned = _unbroadcast(d, shape), True
    if out is None:
        return d if owned else d.copy()
    np.copyto(out, d)
    return out


def check_label_range(targets: np.ndarray, num_classes: int) -> None:
    """Reject integer labels outside ``[0, num_classes)``.

    NumPy's fancy indexing would silently wrap negative labels, so the hard
    cross-entropy kernel validates explicitly (matching the reference path's
    error behavior).
    """
    if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
        raise ValueError("labels out of range for num_classes "
                         f"{num_classes}: [{targets.min()}, {targets.max()}]")


def _set_value(s, value: float) -> None:
    if s.out is None:
        s.out = np.empty((), dtype=s.z.dtype)
    s.out[()] = value


def _softmax_parts(s) -> None:
    """Stable softmax pieces shared by the cross-entropy kernels."""
    z = s.z
    s.zmax = np.maximum.reduce(z, axis=1, keepdims=True, out=s.zmax)
    s.shifted = np.subtract(z, s.zmax, out=s.shifted)
    s.exp = np.exp(s.shifted, out=s.exp)
    s.sumexp = np.add.reduce(s.exp, axis=1, keepdims=True, out=s.sumexp)


# --------------------------------------------------------------------------- #
# linear: y = x W + b (2-D fused path)
# --------------------------------------------------------------------------- #
def _linear_forward(s) -> None:
    out = s.out = np.matmul(s.x, s.weight.data, out=s.out)
    if s.bias is not None:
        out += s.bias.data


def _linear_vjp_x(s, g, out):
    return np.matmul(g, s.weight.data.T, out=out)


def _linear_vjp_weight(s, g, out):
    return np.matmul(s.x.T, g, out=out)


def _sum_rows_vjp(s, g, out):
    # ndarray.sum lowers to add.reduce; call it directly to skip the
    # np.sum dispatch layer (hot path: once per linear per step).
    return np.add.reduce(g, axis=0, out=out)


LINEAR = Op("linear", _linear_forward,
            (_linear_vjp_x, _linear_vjp_weight, _sum_rows_vjp),
            params=("weight", "bias"), buffers=("out",),
            guard=("weight", "bias"))


# --------------------------------------------------------------------------- #
# Elementwise activations
# --------------------------------------------------------------------------- #
def _relu_forward(s) -> None:
    x = s.x
    mask = s.mask = np.greater(x, 0, out=s.mask)
    s.out = np.multiply(x, mask, out=s.out)


def _mask_vjp(s, g, out):
    return np.multiply(g, s.mask, out=out)


RELU = Op("relu", _relu_forward, (_mask_vjp,), buffers=("out", "mask"),
          guard=())


def _tanh_forward(s) -> None:
    s.out = np.tanh(s.x, out=s.out)


def _tanh_vjp(s, g, out):
    # grad * (1 - out ** 2); ``** 2`` lowers to np.square.
    d = np.square(s.out, out=out)
    np.subtract(1.0, d, out=d)
    return np.multiply(g, d, out=d)


TANH = Op("tanh", _tanh_forward, (_tanh_vjp,), buffers=("out",), guard=())


def _dropout_forward(s) -> None:
    layer = s.layer
    x = s.x
    keep = 1.0 - layer.p
    # The mask is drawn from the layer's own RNG on every call, so replayed
    # training consumes the RNG stream exactly as eager training does.
    s.mask = (layer._rng.random(x.shape) < keep).astype(x.dtype) / keep
    s.out = np.multiply(x, s.mask, out=s.out)


DROPOUT = Op("dropout", _dropout_forward, (_mask_vjp,),
             buffers=("out",), guard=("p", "training"))


# --------------------------------------------------------------------------- #
# batchnorm1d
# --------------------------------------------------------------------------- #
def _batchnorm_forward(s) -> None:
    """Train mode normalizes with the batch statistics and updates the
    layer's running stats, rebinding fresh arrays; eval mode reads the live
    running stats.  The statistics are cast to the engine dtype
    (``s.cast_dtype``) and the VJP treats them as constants."""
    layer = s.layer
    x = s.x
    if s.training:
        s.mean = np.mean(x, axis=0, out=s.mean)
        s.var = np.var(x, axis=0, out=s.var)
        m = layer.momentum
        layer.running_mean = (1 - m) * layer.running_mean + m * s.mean
        layer.running_var = (1 - m) * layer.running_var + m * s.var
        mean, var = s.mean, s.var
    else:
        mean, var = layer.running_mean, layer.running_var
    scale = s.scalebuf = np.add(var, layer.eps, out=s.scalebuf)
    np.sqrt(scale, out=scale)
    np.divide(1.0, scale, out=scale)
    cast = s.cast_dtype
    if mean.dtype != cast:
        mean = mean.astype(cast)
    if scale.dtype != cast:
        scale = scale.astype(cast)
    s.scale = scale
    s.negmean = np.negative(mean, out=s.negmean)
    s.diff = np.add(x, s.negmean, out=s.diff)
    s.norm = np.multiply(s.diff, scale, out=s.norm)
    s.scaled = np.multiply(s.norm, s.gamma.data, out=s.scaled)
    s.out = np.add(s.scaled, s.beta.data, out=s.out)


def _batchnorm_vjp_x(s, g, out):
    d = np.multiply(g, s.gamma.data, out=out)
    return np.multiply(d, s.scale, out=d)


def _batchnorm_vjp_gamma(s, g, out):
    s.gnorm = np.multiply(g, s.norm, out=s.gnorm)
    return np.add.reduce(s.gnorm, axis=0, out=out)


BATCHNORM1D = Op("batchnorm1d", _batchnorm_forward,
                 (_batchnorm_vjp_x, _batchnorm_vjp_gamma, _sum_rows_vjp),
                 params=("gamma", "beta"),
                 buffers=("out", "mean", "var", "scalebuf", "negmean", "diff",
                          "norm", "scaled", "gnorm"),
                 guard=("num_features", "momentum", "eps", "training",
                        "gamma", "beta", "running_mean", "running_var"))


# --------------------------------------------------------------------------- #
# Tensor combinators (loss fan-in, weighted loss terms)
# --------------------------------------------------------------------------- #
def _add_forward(s) -> None:
    s.out = np.add(s.a, s.b, out=s.out)


def _mul_forward(s) -> None:
    s.out = np.multiply(s.a, s.b, out=s.out)


def _mul_vjp(g, other, shape, out):
    if g.shape == shape:
        return np.multiply(g, other, out=out)
    return _sum_to(g * other, shape, out, owned=True)


ADD = Op("add", _add_forward,
         (lambda s, g, out: _sum_to(g, s.a.shape, out, owned=False),
          lambda s, g, out: _sum_to(g, s.b.shape, out, owned=False)),
         inputs=("a", "b"), buffers=("out",))

MUL = Op("mul", _mul_forward,
         (lambda s, g, out: _mul_vjp(g, s.b, s.a.shape, out),
          lambda s, g, out: _mul_vjp(g, s.a, s.b.shape, out)),
         inputs=("a", "b"), buffers=("out",))


# --------------------------------------------------------------------------- #
# Fused losses (logits ``z``; raw step-input ``targets`` / ``weights``)
# --------------------------------------------------------------------------- #
def _cross_entropy_forward(s) -> None:
    """Softmax + hard cross entropy, optionally per-sample weighted."""
    z = s.z
    t = s.t = np.asarray(s.targets, dtype=np.int64)
    check_label_range(t, z.shape[1])
    _softmax_parts(s)
    if s.weights is not None:
        w = s.w = np.asarray(s.weights, dtype=z.dtype)
        s.denom = float(w.sum()) or 1.0
    else:
        s.denom = float(z.shape[0])
    if s.rows is None:
        s.rows = np.arange(z.shape[0])
    if not s.need_value:
        return
    s.logz = np.log(s.sumexp[:, 0], out=s.logz)
    picked = s.shifted[s.rows, t]
    picked -= s.logz
    if s.weights is not None:
        _set_value(s, -float(s.w @ picked) / s.denom)
    else:
        _set_value(s, -float(picked.sum()) / s.denom)


def _cross_entropy_vjp(s, g, out):
    # (softmax(z) - onehot(t)) * w / denom
    d = np.divide(s.exp, s.sumexp, out=out)
    d[s.rows, s.t] -= 1.0
    if s.weights is not None:
        d *= s.w[:, None]
    d *= float(g) / s.denom
    return d


CROSS_ENTROPY = Op("cross_entropy", _cross_entropy_forward,
                   (_cross_entropy_vjp,), inputs=("z",),
                   data=("targets", "weights"),
                   buffers=("out", "zmax", "shifted", "exp", "sumexp", "rows",
                            "logz"))


def _soft_cross_entropy_forward(s) -> None:
    """Cross entropy against soft targets, optionally per-sample weighted."""
    z = s.z
    t = np.asarray(s.targets, dtype=z.dtype)
    _softmax_parts(s)
    if s.weights is not None:
        w = np.asarray(s.weights, dtype=z.dtype)
        t = s.tw = np.multiply(t, w[:, None], out=s.tw)
        s.denom = float(w.sum()) or 1.0
    else:
        s.denom = float(z.shape[0])
    s.t = t
    if not s.need_value:
        return
    s.logz = np.log(s.sumexp, out=s.logz)
    # log_probs = shifted - log(sumexp); loss = -sum(t * log_probs) / denom
    s.prod = np.subtract(s.shifted, s.logz, out=s.prod)
    np.multiply(s.prod, t, out=s.prod)
    _set_value(s, -float(s.prod.sum()) / s.denom)


def _soft_cross_entropy_vjp(s, g, out):
    # d/dz of -sum(t * logsoftmax(z)) is softmax(z) * rowsum(t) - t.
    d = np.divide(s.exp, s.sumexp, out=out)
    s.tsum = np.add.reduce(s.t, axis=1, keepdims=True, out=s.tsum)
    d *= s.tsum
    d -= s.t
    d *= float(g) / s.denom
    return d


SOFT_CROSS_ENTROPY = Op("soft_cross_entropy", _soft_cross_entropy_forward,
                        (_soft_cross_entropy_vjp,), inputs=("z",),
                        data=("targets", "weights"),
                        buffers=("out", "zmax", "shifted", "exp", "sumexp",
                                 "tw", "logz", "prod", "tsum"))


def _squared_error_forward(s) -> None:
    """``sum((z - t)^2) / denom``: ``l2_loss`` and ``mse_loss`` differ only
    in ``s.denom``."""
    s.diff = np.subtract(s.z, s.targets, out=s.diff)
    if not s.need_value:
        return
    s.sq = np.multiply(s.diff, s.diff, out=s.sq)
    _set_value(s, float(s.sq.sum()) / s.denom)


def _squared_error_vjp(s, g, out):
    return np.multiply(s.diff, 2.0 * float(g) / s.denom, out=out)


SQUARED_ERROR = Op("squared_error", _squared_error_forward,
                   (_squared_error_vjp,), inputs=("z",), data=("targets",),
                   buffers=("out", "diff", "sq"))


#: every op the replay compiler accepts, by name
OPS = {op.name: op for op in (LINEAR, RELU, TANH, DROPOUT, BATCHNORM1D, ADD,
                              MUL, CROSS_ENTROPY, SOFT_CROSS_ENTROPY,
                              SQUARED_ERROR)}
