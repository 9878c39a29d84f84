"""Minimal differentiable building blocks with explicit forward/backward passes.

All math is float64. Layers hold :class:`ParamTensor` parameters; ``forward``
returns ``(output, cache)`` and ``backward(cache, grad_out)`` returns the input
gradient while accumulating parameter gradients into ``.grad``. Forward and
backward are pure given (parameters, input, rng state); the one deliberate
exception is batch-norm's running-statistics update in train mode, which is
itself deterministic and does not affect the train-mode output.

The leading member axis is optional: a layer whose arrays are M models'
stacked on axis 0 (``stack_members``) runs each model's math on its slice.

Weight init: uniform(+-sqrt(6 / (fan_in + fan_out))), biases zero, LSTM forget
bias 1.0.
"""

from __future__ import annotations

import copy

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
    """y = x W^T + b with W of shape (..., d_out, d_in).

    ``bias=False`` drops the additive term (used in front of batch-norm,
    where a bias would be cancelled by the mean subtraction). A stacked
    layer takes x of shape (M, B, d_in), or (B, d_in) shared by all members.
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
        y = x @ self.W.values.swapaxes(-1, -2)
        if self.b is not None:
            y += self.b.values if x.ndim == 1 else self.b.values[..., None, :]
        return y, x

    def backward(self, cache, grad_out):
        x = cache
        g2 = np.atleast_2d(grad_out)
        x2 = np.atleast_2d(x)
        self.W.grad += g2.swapaxes(-1, -2) @ x2
        if self.b is not None:
            self.b.grad += g2.sum(axis=-2)
        return grad_out @ self.W.values


class ReLU:
    def params(self):
        return []

    def forward(self, x, mode=TRAIN, rng=None):
        return np.maximum(x, 0.0), x

    def backward(self, cache, grad_out):
        return grad_out * (cache > 0)


def sigmoid(x, out=None):
    """``1 / (1 + exp(-x))``, into ``out`` when given (it may be ``x``)."""
    # exp(-x) overflows to inf below x = -709.78 and the result is then 0,
    # the correctly rounded value; above that it stays strictly positive,
    # which the positive frame weights of video.pool_weighted rely on.
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        e = np.exp(np.negative(x, out=out), out=out)
    e += 1.0
    return np.divide(1.0, e, out=out)


class BatchNorm:
    """Batch normalization over the batch axis (-2); EMA running stats
    (momentum 0.1, eps 1e-5).

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
        if x.ndim < 2 or x.shape[-1] != self.dim:
            raise ContractError(
                f"batch-norm expects (..., B, {self.dim}), got {x.shape}")
        if mode == TRAIN:
            mean = x.mean(axis=-2)
            var = x.var(axis=-2)
            invstd = 1.0 / np.sqrt(var + self.eps)[..., None, :]
            xhat = (x - mean[..., None, :]) * invstd
            # in place: a stacked member's statistics are views of its slice
            self.running_mean *= 1 - self.momentum
            self.running_mean += self.momentum * mean
            self.running_var *= 1 - self.momentum
            self.running_var += self.momentum * var
            cache = (xhat, invstd)
        else:
            invstd = 1.0 / np.sqrt(self.running_var + self.eps)[..., None, :]
            xhat = (x - self.running_mean[..., None, :]) * invstd
            cache = (None, invstd)
        return (xhat * self.gamma.values[..., None, :]
                + self.beta.values[..., None, :]), cache

    def backward(self, cache, grad_out):
        xhat, invstd = cache
        if xhat is None:
            raise ContractError("batch-norm backward requires a train-mode cache")
        self.gamma.grad += (grad_out * xhat).sum(axis=-2)
        self.beta.grad += grad_out.sum(axis=-2)
        gxhat = grad_out * self.gamma.values[..., None, :]
        # d/dx of (x - mean) / sqrt(var + eps) with batch statistics.
        return invstd * (gxhat - gxhat.mean(axis=-2, keepdims=True)
                         - xhat * (gxhat * xhat).mean(axis=-2, keepdims=True))


class Dropout:
    """Inverted dropout: train scales kept units by 1/(1-rate), eval is identity.
    A stacked input takes one rng per member, drawing its mask as alone."""

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
        if isinstance(rng, np.random.Generator):
            u = rng.random(np.shape(x))
        else:
            u = np.empty(np.shape(x))
            for r, u_m in zip(rng, u):
                r.random(out=u_m)
        keep = (u >= self.rate) / (1.0 - self.rate)
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
    C = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= C:
        raise ContractError(f"labels must be in [0, {C})")
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


def lstm_forward(params: LSTMParams, xs, keep_caches=True, cache=None):
    """Run a (..., B, T, D) batch through the cell from zero state.

    Each step computes ``z = (x_t Wx^T + h Wh^T) + b``, a sigmoid over the
    input, forget and output gate slices of the (..., B, 4H) block and a
    tanh over its cell slice. Returns the final hidden state (..., B, H) and
    the BPTT cache: the inputs and per-step gates, hidden and cell states
    and tanh(c), as (..., T, B, .) arrays. With ``keep_caches=False``
    (inference) nothing is stored and the cache is None, so memory stays
    flat in T. Stacked parameters take xs of shape (M, B, T, D), or
    (B, T, D) shared by all members.

    ``cache`` may be an earlier cache that ``lstm_backward`` has consumed;
    if its shapes match this batch, the gates and states are written into
    its arrays, which saves allocating and first touching fresh ones every
    training step. Otherwise it is ignored. The results are the same.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim < 3 or xs.shape[-1] != params.d_in:
        raise ContractError(
            f"lstm_forward expects (..., B, T, {params.d_in}), got {xs.shape}")
    B, T = xs.shape[-3:-1]
    H = params.hidden
    lead = np.broadcast_shapes(xs.shape[:-3], params.Wx.values.shape[:-2])
    WxT = params.Wx.values.swapaxes(-1, -2)
    WhT = params.Wh.values.swapaxes(-1, -2)
    h, c = np.zeros((2, *lead, B, H))
    if not keep_caches:
        a = np.empty((*lead, B, 4 * H))  # one block, rewritten every step
    elif cache is not None and cache[1].shape == (*lead, T, B, 4 * H):
        _, gates, hs, cs, tcs = cache
    else:
        gates = np.empty((*lead, T, B, 4 * H))
        hs, cs, tcs = (np.empty((*lead, T, B, H)) for _ in range(3))
    for t in range(T):
        if keep_caches:
            a = gates[..., t, :, :]
        np.matmul(xs[..., t, :], WxT, out=a)
        a += h @ WhT
        a += params.b.values[..., None, :]
        i, f, g, o = (a[..., :H], a[..., H:2 * H], a[..., 2 * H:3 * H],
                      a[..., 3 * H:])
        tg = np.tanh(g)
        sigmoid(a, out=a)  # one pass over the contiguous block
        g[...] = tg
        if keep_caches:
            hs[..., t, :, :], cs[..., t, :, :] = h, c
        c = f * c + i * g
        tc = np.tanh(c, out=tcs[..., t, :, :] if keep_caches else None)
        h = o * tc
    return h, ((xs, gates, hs, cs, tcs) if keep_caches else None)


def lstm_backward(params: LSTMParams, cache, dh_last):
    """BPTT from a gradient on the final hidden state; returns d(inputs)
    (..., B, T, D).

    The time loop carries only ``dh`` and ``dc``: each step writes its
    pre-activation gradient dz over its gate cache (so a cache serves one
    backward pass). The weight gradients and ``dx`` are then one matmul each
    (per member) over all (T * B) rows.
    """
    xs, gates, hs, cs, tcs = cache
    *lead, T, B, _ = gates.shape
    D, H = xs.shape[-1], params.hidden
    dh = np.asarray(dh_last, dtype=np.float64)
    dc = np.zeros_like(dh)
    for t in reversed(range(T)):
        a, tc = gates[..., t, :, :], tcs[..., t, :, :]
        i, f, g, o = (a[..., :H], a[..., H:2 * H], a[..., 2 * H:3 * H],
                      a[..., 3 * H:])
        do = dh * tc
        dcell = dc + dh * o * (1.0 - tc * tc)
        di = dcell * g
        df = dcell * cs[..., t, :, :]
        dg = dcell * i
        dc = dcell * f
        a[..., 0:H] = di * i * (1.0 - i)
        a[..., H:2 * H] = df * f * (1.0 - f)
        a[..., 2 * H:3 * H] = dg * (1.0 - g * g)
        a[..., 3 * H:] = do * o * (1.0 - o)
        dh = a @ params.Wh.values
    dz = gates.reshape(*lead, T * B, 4 * H)
    dzT = dz.swapaxes(-1, -2)
    params.Wx.grad += dzT @ xs.swapaxes(-3, -2).reshape(*lead, T * B, D)
    params.Wh.grad += dzT @ hs.reshape(*lead, T * B, H)
    params.b.grad += dz.sum(axis=-2)
    return (dz @ params.Wx.values).reshape(*lead, T, B, D).swapaxes(-3, -2)


# -- MLP head ------------------------------------------------------------------

class MLPHead:
    """linear -> batch-norm -> ReLU -> dropout -> linear, for per-clip vectors
    (..., B, d_in).

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


# -- stacked members -----------------------------------------------------------

def _arrays(model):
    """(object, attribute) of every array a model trains: its parameters'
    values and gradients, then its batch-norm layers' running statistics."""
    return ([(p, name) for p in model.params() for name in ("values", "grad")]
            + [(layer, name) for layer in vars(model).values()
               if isinstance(layer, BatchNorm)
               for name in ("running_mean", "running_var")])


def stack_members(models):
    """A copy of ``models[0]`` whose trained arrays (``_arrays``) are all
    the same-shaped models', stacked on a new leading member axis.

    Every layer runs member m's math on slice m, so the stack trains and
    scores each member bit for bit as it would alone. Each model's arrays
    become views of its slice: what the stack learns is the members' own,
    and memory holds one copy of each.
    """
    # shares models[0]'s arrays; a lone model's gain the axis as views
    first = [getattr(o, n) for o, n in _arrays(models[0])]
    stack = copy.deepcopy(models[0], {id(a): a for a in first})
    for (obj, name), *members in zip(_arrays(stack), *map(_arrays, models)):
        arrays = [getattr(o, n) for o, n in members]
        setattr(obj, name, arrays[0][None] if len(arrays) == 1
                else np.stack(arrays))
        for (o, n), view in zip(members, getattr(obj, name)):
            setattr(o, n, view)
    return stack
