"""Table-driven oracle over every entry of the op table (``repro.nn.ops``).

For each op, in float64 and float32:

* **Eager vs reference.**  The table kernels (fused mode) must match a
  reference within tolerance, in output and in every gradient.  The
  reference is the unfused primitive composition under
  ``use_fused_ops(False)`` where the engine has one; ``relu``/``tanh``/
  ``add``/``mul`` always run the table, so their reference is a composition
  of other engine primitives (``leaky_relu``, ``sigmoid``, ``stack`` +
  ``sum``, true division).
* **Replay vs eager.**  A model or step function applies the op twice to
  one activation — two consumers, so the second gradient contribution takes
  the accumulate path — and trains with replay forced on and off.  Losses,
  parameters, batch-norm running stats and the compiled forward (or eval
  loss) must be bit-identical.
"""

import contextlib

import numpy as np
import pytest

from repro.nn import (SGD, GraphReplay, Tensor, default_dtype, no_grad,
                      stack, use_fused_ops)
from repro.nn import functional as F
from repro.nn.modules import (BatchNorm1d, Dropout, Linear, Module, ReLU,
                              Tanh)
from repro.nn.ops import OPS

DTYPES = [pytest.param(np.float64, id="float64"),
          pytest.param(np.float32, id="float32")]
TOLERANCE = {np.float64: dict(rtol=1e-9, atol=1e-12),
             np.float32: dict(rtol=1e-4, atol=1e-5)}
N, D, C = 12, 5, 4


def _dtype_scope(dtype):
    return (default_dtype(dtype) if dtype is not np.float64
            else contextlib.nullcontext())


def _targets(rng):
    labels = rng.integers(0, C, size=N)
    probs = rng.dirichlet(np.ones(C), size=N)
    weights = rng.uniform(0.2, 1.0, size=N)
    return labels, probs, weights


# --------------------------------------------------------------------------- #
# Eager vs reference: (leaf arrays, op under test, reference)
# --------------------------------------------------------------------------- #
def _eager_cases():
    rng = np.random.default_rng(0)
    labels, probs, weights = _targets(rng)
    x = rng.normal(size=(N, D))
    cases = {}

    linear = Linear(D, C, rng=np.random.default_rng(1))
    cases["linear"] = (
        [x, linear.weight.data, linear.bias.data],
        lambda a, w, b: F.linear(a, w, b), None)
    cases["relu"] = ([x], lambda a: a.relu(), lambda a: a.leaky_relu(0.0))
    cases["tanh"] = ([x], lambda a: a.tanh(),
                     lambda a: (a / 0.5).sigmoid() / 0.5 - 1.0)

    def dropout(a):
        return Dropout(0.3, rng=np.random.default_rng(2))(a)

    cases["dropout"] = ([x], dropout, None)

    def batchnorm(a, gamma, beta):
        layer = BatchNorm1d(D)
        layer.gamma, layer.beta = gamma, beta
        return layer(a)

    cases["batchnorm1d"] = (
        [x, rng.uniform(0.5, 1.5, size=D), rng.normal(size=D)],
        batchnorm, None)
    y = rng.normal(size=(N, D))
    cases["add"] = ([x, y], lambda a, b: a + b,
                    lambda a, b: stack([a, b]).sum(axis=0))
    positive = rng.uniform(0.5, 2.0, size=(N, D))
    cases["mul"] = ([x, positive], lambda a, b: a * b,
                    lambda a, b: a / (1.0 / b))
    z = rng.normal(size=(N, C))
    cases["cross_entropy"] = (
        [z], lambda a: F.cross_entropy(a, labels, sample_weights=weights),
        None)
    cases["soft_cross_entropy"] = (
        [z], lambda a: F.soft_cross_entropy(a, probs, sample_weights=weights),
        None)
    target = rng.normal(size=(N, C))
    cases["squared_error"] = ([z], lambda a: F.l2_loss(a, target), None)
    return cases


def _run_eager(arrays, fn, fused):
    with use_fused_ops(fused):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*leaves)
        upstream = np.linspace(-1.0, 1.0, out.size).reshape(out.shape)
        out.backward(upstream.astype(out.dtype))
        return out.data, [leaf.grad for leaf in leaves]


def test_every_table_entry_has_cases():
    assert set(_eager_cases()) == set(OPS)
    assert set(_REPLAY_CASES) == set(OPS)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(OPS))
def test_eager_matches_reference(name, dtype):
    with _dtype_scope(dtype):
        arrays, fn, reference = _eager_cases()[name]
        got, grads = _run_eager(arrays, fn, fused=True)
        if reference is None:
            want, want_grads = _run_eager(arrays, fn, fused=False)
        else:
            want, want_grads = _run_eager(arrays, reference, fused=True)
    assert got.dtype == np.dtype(dtype)
    np.testing.assert_allclose(got, want, **TOLERANCE[dtype])
    for grad, want_grad in zip(grads, want_grads):
        assert grad.dtype == np.dtype(dtype)
        np.testing.assert_allclose(grad, want_grad, **TOLERANCE[dtype])


# --------------------------------------------------------------------------- #
# Replay vs eager, with one activation feeding two consumers
# --------------------------------------------------------------------------- #
class _Twice(Module):
    """trunk -> ``inner`` applied twice to the same activation -> head."""

    def __init__(self, inner, width: int = D):
        super().__init__()
        self.trunk = Linear(D, width, rng=np.random.default_rng(3))
        self.inner = inner
        self.head = Linear(width, C, rng=np.random.default_rng(4))

    def forward(self, x):
        h = self.trunk(x)
        return self.head(self.inner(h) + self.inner(h))


class _Square(Module):
    def forward(self, x):
        return x * x


class _Double(Module):
    def forward(self, x):
        return x + x


def _cross_entropy_pair(model, batch):
    z = model(batch["x"])
    return (F.cross_entropy(z, batch["y"])
            + F.cross_entropy(z, batch["y"], sample_weights=batch["w"].data))


def _soft_cross_entropy_pair(model, batch):
    z = model(batch["x"])
    t = batch["t"].data
    return (F.soft_cross_entropy(z, t)
            + F.soft_cross_entropy(z, t, sample_weights=batch["w"].data))


def _squared_error_pair(model, batch):
    z = model(batch["x"])
    return F.l2_loss(z, batch["t"].data) + F.mse_loss(z, batch["t"].data)


def _layer_step(model, batch):
    return F.cross_entropy(model(batch["x"]), batch["y"])


#: op -> (model factory, step function, loss name for the forward check)
_REPLAY_CASES = {
    "linear": (lambda: _Twice(Linear(D, D, rng=np.random.default_rng(5))),
               _layer_step, None),
    "relu": (lambda: _Twice(ReLU()), _layer_step, None),
    "tanh": (lambda: _Twice(Tanh()), _layer_step, None),
    "dropout": (lambda: _Twice(Dropout(0.3, rng=np.random.default_rng(6))),
                _layer_step, None),
    "batchnorm1d": (lambda: _Twice(BatchNorm1d(D)), _layer_step, None),
    "add": (lambda: _Twice(_Double()), _layer_step, None),
    "mul": (lambda: _Twice(_Square()), _layer_step, None),
    "cross_entropy": (lambda: _Twice(ReLU()), _cross_entropy_pair,
                      "cross_entropy"),
    "soft_cross_entropy": (lambda: _Twice(ReLU()), _soft_cross_entropy_pair,
                           "soft_cross_entropy"),
    "squared_error": (lambda: _Twice(ReLU()), _squared_error_pair, "l2"),
}


def _batches(steps: int = 4):
    rng = np.random.default_rng(7)
    out = []
    for _ in range(steps):
        labels, probs, weights = _targets(rng)
        out.append({"x": rng.normal(size=(N, D)), "y": labels,
                    "t": probs, "w": weights})
    return out


def _train(name, dtype, replay):
    make_model, step, loss = _REPLAY_CASES[name]
    batches = _batches()
    with _dtype_scope(dtype):
        model = make_model()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        stepper = GraphReplay(model, optimizer, loss=loss or "cross_entropy",
                              enabled=replay)
        losses = [stepper.step_fn(step, batch) for batch in batches]
        model.eval()
        x, y = batches[0]["x"], batches[0]["y"]
        if loss is None:
            compiled = [stepper.forward(x).copy() for _ in range(2)]
        else:
            target = y if loss == "cross_entropy" else batches[0]["t"]
            compiled = [stepper.eval_loss(x, target) for _ in range(2)]
        stats = [(m.running_mean.copy(), m.running_var.copy())
                 for m in model.modules() if isinstance(m, BatchNorm1d)]
        params = [p.data.copy() for p in model.parameters()]
    return losses, params, stats, compiled, stepper.stats


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(OPS))
def test_replay_bit_identical_to_eager(name, dtype):
    losses, params, bn, compiled, stats = _train(name, dtype, replay=True)
    e_losses, e_params, e_bn, e_compiled, _ = _train(name, dtype, replay=False)
    # Every step but the capture replayed, and so did the compiled forward.
    assert stats.fallbacks == {}
    assert stats.captures == 2
    assert stats.replays == len(losses) - 1 + len(compiled) - 1
    assert losses == e_losses
    for got, want in zip(params + [a for pair in bn for a in pair],
                         e_params + [a for pair in e_bn for a in pair]):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for got, want in zip(compiled, e_compiled):
        np.testing.assert_array_equal(got, want)


def test_replay_covers_each_op_in_its_case():
    """Each replay case really traces the op it is named after."""
    from repro.nn.tensor import trace_ops

    for name, (make_model, step, _) in _REPLAY_CASES.items():
        batch = _batches(1)[0]
        model = make_model()
        records = []
        with trace_ops(records), no_grad():
            step(model, {"x": Tensor(batch["x"]), "y": batch["y"],
                         "t": Tensor(batch["t"]), "w": Tensor(batch["w"])})
        ops = [rec[1].name for rec in records if rec[0] == "op"]
        assert ops.count(name) >= 2, (name, ops)
