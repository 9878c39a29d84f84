"""Minimal differentiable building blocks with explicit forward/backward passes.

All math is float64. Layers hold :class:`ParamTensor` parameters; ``forward``
returns ``(output, cache)`` and ``backward(cache, grad_out)`` returns the input
gradient while accumulating parameter gradients into ``.grad``. Forward and
backward are pure given (parameters, input, rng state); the one deliberate
exception is batch-norm's running-statistics update in train mode, which is
itself deterministic and does not affect the train-mode output.

Weight init: uniform(+-sqrt(6 / (fan_in + fan_out))), biases zero, LSTM forget
bias 1.0.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

TRAIN = "train"
EVAL = "eval"


class ParamTensor:
    """A parameter array paired with a same-shaped gradient accumulator."""

    __slots__ = ("name", "values", "grad")

    def __init__(self, name, values):
        self.name = name
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"ParamTensor({self.name!r}, shape={self.values.shape})"


def glorot_uniform(rng, fan_out, fan_in):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def _check_mode(mode):
    if mode not in (TRAIN, EVAL):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")


class Linear:
    """y = x W^T + b with W of shape (d_out, d_in).

    ``bias=False`` drops the additive term (used in front of batch-norm,
    where a bias would be cancelled by the mean subtraction).
    """

    def __init__(self, d_in, d_out, rng=None, name="linear", bias=True):
        w = glorot_uniform(rng, d_out, d_in) if rng is not None else np.zeros((d_out, d_in))
        self.W = ParamTensor(f"{name}.W", w)
        self.b = ParamTensor(f"{name}.b", np.zeros(d_out)) if bias else None
        self.d_in, self.d_out = d_in, d_out

    def params(self):
        return [self.W] if self.b is None else [self.W, self.b]

    def forward(self, x, mode=TRAIN, rng=None):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.d_in:
            raise ContractError(f"linear expects last dim {self.d_in}, got {x.shape}")
        y = x @ self.W.values.T
        if self.b is not None:
            y += self.b.values
        return y, x

    def backward(self, cache, grad_out):
        x = cache
        g2 = np.atleast_2d(grad_out)
        x2 = np.atleast_2d(x)
        self.W.grad += g2.T @ x2
        if self.b is not None:
            self.b.grad += g2.sum(axis=0)
        return grad_out @ self.W.values


class ReLU:
    def params(self):
        return []

    def forward(self, x, mode=TRAIN, rng=None):
        return np.maximum(x, 0.0), x

    def backward(self, cache, grad_out):
        return grad_out * (cache > 0)


def sigmoid(x):
    # exp(-x) overflows to inf below x = -709.78 and the result is then 0,
    # the correctly rounded value; above that it stays strictly positive,
    # which pool_weighted's positive frame weights rely on.
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


class BatchNorm:
    """Batch normalization over axis 0; EMA running stats (momentum 0.1, eps 1e-5).

    Eval mode is a fixed affine map using the running statistics, so eval
    output per sample is independent of batch composition.
    """

    def __init__(self, dim, momentum=0.1, eps=1e-5, name="bn"):
        self.gamma = ParamTensor(f"{name}.gamma", np.ones(dim))
        self.beta = ParamTensor(f"{name}.beta", np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = momentum
        self.eps = eps
        self.dim = dim

    def params(self):
        return [self.gamma, self.beta]

    def forward(self, x, mode=TRAIN, rng=None):
        _check_mode(mode)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ContractError(f"batch-norm expects (B, {self.dim}), got {x.shape}")
        if mode == TRAIN:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            invstd = 1.0 / np.sqrt(var + self.eps)
            xhat = (x - mean) * invstd
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
            cache = (xhat, invstd)
        else:
            invstd = 1.0 / np.sqrt(self.running_var + self.eps)
            xhat = (x - self.running_mean) * invstd
            cache = (None, invstd)
        return xhat * self.gamma.values + self.beta.values, cache

    def backward(self, cache, grad_out):
        xhat, invstd = cache
        if xhat is None:
            raise ContractError("batch-norm backward requires a train-mode cache")
        self.gamma.grad += (grad_out * xhat).sum(axis=0)
        self.beta.grad += grad_out.sum(axis=0)
        gxhat = grad_out * self.gamma.values
        # d/dx of (x - mean) / sqrt(var + eps) with batch statistics.
        return invstd * (gxhat - gxhat.mean(axis=0)
                         - xhat * (gxhat * xhat).mean(axis=0))


class Dropout:
    """Inverted dropout: train scales kept units by 1/(1-rate), eval is identity."""

    def __init__(self, rate):
        if not (0.0 <= rate < 1.0):
            raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def params(self):
        return []

    def forward(self, x, mode=TRAIN, rng=None):
        _check_mode(mode)
        if mode == EVAL or self.rate == 0.0:
            return np.asarray(x, dtype=np.float64), None
        if rng is None:
            raise ContractError("dropout in train mode needs an rng")
        keep = (rng.random(np.shape(x)) >= self.rate) / (1.0 - self.rate)
        return x * keep, keep

    def backward(self, cache, grad_out):
        if cache is None:
            return grad_out
        return grad_out * cache


# -- softmax / cross-entropy ---------------------------------------------------

def softmax(logits, axis=-1):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(logits, label):
    """Loss, d(loss)/d(logits), and probabilities for a single score vector."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ContractError(f"expected 1-d logits, got shape {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise ContractError("logits must be finite")
    label = int(label)
    if not (0 <= label < logits.shape[0]):
        raise ContractError(f"label {label} out of range [0, {logits.shape[0]})")
    probs = softmax(logits)
    loss = -np.log(probs[label])
    grad = probs.copy()
    grad[label] -= 1.0
    return float(loss), grad, probs


def softmax_cross_entropy_batch(logits, labels):
    """Mean cross-entropy over a batch; grad already divided by batch size.

    ``logits`` is (B, C) with ``labels`` (B,), and the loss is a float; or
    (M, B, C) with ``labels`` (M, B) for M stacked models, and the loss is
    an (M,) array. Each model's loss and grad are computed as in the
    (B, C) case.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim not in (2, 3) or labels.shape != logits.shape[:-1]:
        raise ContractError(f"batch shapes mismatch: {logits.shape} vs {labels.shape}")
    B = logits.shape[-2]
    probs = softmax(logits, axis=-1)
    picked = (*np.indices(labels.shape, sparse=True), labels)
    losses = -np.log(probs[picked])
    grad = probs.copy()
    grad[picked] -= 1.0
    grad /= B
    loss = losses.mean(axis=-1)
    return (float(loss) if logits.ndim == 2 else loss), grad, probs


# -- LSTM ----------------------------------------------------------------------

class LSTMParams:
    """Packed gate parameters, gate order [input, forget, cell, output].

    Wx is (4H, D), Wh is (4H, H), b is (4H,); the forget-gate bias slice is
    initialized to 1.0.
    """

    def __init__(self, d_in, hidden, rng=None, name="lstm"):
        self.d_in, self.hidden = d_in, hidden
        if rng is not None:
            wx = np.vstack([glorot_uniform(rng, hidden, d_in) for _ in range(4)])
            wh = np.vstack([glorot_uniform(rng, hidden, hidden) for _ in range(4)])
        else:
            wx = np.zeros((4 * hidden, d_in))
            wh = np.zeros((4 * hidden, hidden))
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0
        self.Wx = ParamTensor(f"{name}.Wx", wx)
        self.Wh = ParamTensor(f"{name}.Wh", wh)
        self.b = ParamTensor(f"{name}.b", b)

    def params(self):
        return [self.Wx, self.Wh, self.b]


def lstm_step(params: LSTMParams, state, x):
    """One cell update (sigmoid gates, tanh candidate): returns ((h', c'), cache)."""
    h, c = state
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    h2 = np.atleast_2d(np.asarray(h, dtype=np.float64))
    c2 = np.atleast_2d(np.asarray(c, dtype=np.float64))
    H = params.hidden
    if x2.shape[1] != params.d_in or h2.shape[1] != H or c2.shape[1] != H:
        raise ContractError(
            f"lstm_step shapes: x{x2.shape} h{h2.shape} c{c2.shape} "
            f"for d_in={params.d_in} hidden={H}")
    z = x2 @ params.Wx.values.T + h2 @ params.Wh.values.T + params.b.values
    i = sigmoid(z[:, 0:H])
    f = sigmoid(z[:, H:2 * H])
    g = np.tanh(z[:, 2 * H:3 * H])
    o = sigmoid(z[:, 3 * H:4 * H])
    c_new = f * c2 + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    cache = (x2, h2, c2, i, f, g, o, tc)
    if single:
        return (h_new[0], c_new[0]), cache
    return (h_new, c_new), cache


def lstm_step_backward(params: LSTMParams, cache, dh, dc):
    """Backward through one cell step; returns (dx, dh_prev, dc_prev)."""
    x2, h2, c2, i, f, g, o, tc = cache
    dh2 = np.atleast_2d(dh)
    dc2 = np.atleast_2d(dc)
    H = params.hidden
    do = dh2 * tc
    dcell = dc2 + dh2 * o * (1.0 - tc * tc)
    di = dcell * g
    df = dcell * c2
    dg = dcell * i
    dc_prev = dcell * f
    dz = np.concatenate([
        di * i * (1.0 - i),
        df * f * (1.0 - f),
        dg * (1.0 - g * g),
        do * o * (1.0 - o),
    ], axis=1)
    params.Wx.grad += dz.T @ x2
    params.Wh.grad += dz.T @ h2
    params.b.grad += dz.sum(axis=0)
    dx = dz @ params.Wx.values
    dh_prev = dz @ params.Wh.values
    if np.ndim(dh) == 1:
        return dx[0], dh_prev[0], dc_prev[0]
    return dx, dh_prev, dc_prev


def lstm_forward(params: LSTMParams, xs, keep_caches=True):
    """Run a (B, T, D) batch through the cell from zero state.

    Returns the final hidden state (B, H) and the cache list for BPTT. With
    ``keep_caches=False`` (inference) each step's cache is dropped once the
    next step runs and the list comes back empty, so memory stays flat in T.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3:
        raise ContractError(f"lstm_forward expects (B, T, D), got {xs.shape}")
    B = xs.shape[0]
    h = np.zeros((B, params.hidden))
    c = np.zeros((B, params.hidden))
    caches = []
    for t in range(xs.shape[1]):
        (h, c), cache = lstm_step(params, (h, c), xs[:, t, :])
        if keep_caches:
            caches.append(cache)
    return h, caches


def lstm_backward(params: LSTMParams, caches, dh_last):
    """BPTT from a gradient on the final hidden state; returns d(inputs) (B, T, D)."""
    T = len(caches)
    dh = np.asarray(dh_last, dtype=np.float64)
    dc = np.zeros_like(dh)
    dxs = [None] * T
    for t in reversed(range(T)):
        dx, dh, dc = lstm_step_backward(params, caches[t], dh, dc)
        dxs[t] = dx
    return np.stack(dxs, axis=1)


# -- MLP head ------------------------------------------------------------------

class MLPHead:
    """linear -> batch-norm -> ReLU -> dropout -> linear, for per-clip vectors.

    The hidden linear is bias-free: batch-norm's shift parameter plays that
    role, and a bias in front of the mean subtraction would be untrainable.
    """

    def __init__(self, d_in, hidden, n_classes, dropout=0.0, rng=None, name="mlp"):
        self.hidden_layer = Linear(d_in, hidden, rng=rng, name=f"{name}.hidden",
                                   bias=False)
        self.bn = BatchNorm(hidden, name=f"{name}.bn")
        self.relu = ReLU()
        self.dropout = Dropout(dropout)
        self.out_layer = Linear(hidden, n_classes, rng=rng, name=f"{name}.out")
        self.d_in, self.hidden, self.n_classes = d_in, hidden, n_classes

    def params(self):
        return (self.hidden_layer.params() + self.bn.params() + self.out_layer.params())

    def forward(self, x, mode=TRAIN, rng=None):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h, c1 = self.hidden_layer.forward(x, mode, rng)
        hn, c2 = self.bn.forward(h, mode, rng)
        a, c3 = self.relu.forward(hn, mode, rng)
        d, c4 = self.dropout.forward(a, mode, rng)
        logits, c5 = self.out_layer.forward(d, mode, rng)
        return logits, (c1, c2, c3, c4, c5)

    def backward(self, cache, grad_out):
        c1, c2, c3, c4, c5 = cache
        g = self.out_layer.backward(c5, np.atleast_2d(grad_out))
        g = self.dropout.backward(c4, g)
        g = self.relu.backward(c3, g)
        g = self.bn.backward(c2, g)
        return self.hidden_layer.backward(c1, g)
