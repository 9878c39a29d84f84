"""Minimal differentiable building blocks with explicit forward/backward passes.

All math is float64. Layers hold :class:`ParamTensor` parameters; ``forward``
returns ``(output, cache)`` and ``backward(cache, grad_out)`` accumulates
parameter gradients into ``.grad``. Batch-norm returns the input gradient,
which the layer in front consumes; ``Linear``, ``MLPHead`` and
``lstm_backward`` return nothing, and a caller that needs a linear layer's
input gradient forms ``grad_out @ W`` itself. Nonlinearities and dropout are
written inline by the models that use them. The inputs of
the first layers are frozen features from pretrained networks. Forward and
backward are pure given (parameters, input, rng state); the deliberate
exception is batch-norm's running-statistics update in train mode, which is
itself deterministic and does not affect the train-mode output.

The leading member axis is optional: a layer whose arrays are M models'
stacked on axis 0 (``stack_members``) runs each model's math on its slice.

A training LSTM forward caches only what its backward cannot cheaply
recompute: the inputs, the gates and the cell states. The backward
recomputes each step's tanh(c) and hidden state from them.

Weight init: uniform(+-sqrt(6 / (fan_in + fan_out))), biases zero, LSTM forget
bias 1.0.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import ContractError

TRAIN = "train"
EVAL = "eval"


class ParamTensor:
    """A parameter array paired with a same-shaped gradient accumulator."""

    __slots__ = ("name", "values", "grad")

    def __init__(self, name, values):
        self.name = name
        self.values = np.asarray(values, dtype=np.float64, order="C")
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

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.d_in:
            raise ContractError(f"linear expects last dim {self.d_in}, got {x.shape}")
        y = x @ self.W.values.swapaxes(-1, -2)
        if self.b is not None:
            y += self.b.values if x.ndim == 1 else self.b.values[..., None, :]
        return y, x

    def backward(self, cache, grad_out):
        """Accumulate the W and b gradients; returns nothing (the input
        gradient is ``grad_out @ W.values``, formed by a caller that needs it)."""
        x = cache
        g2 = np.atleast_2d(grad_out)
        x2 = np.atleast_2d(x)
        self.W.grad += g2.swapaxes(-1, -2) @ x2
        if self.b is not None:
            self.b.grad += g2.sum(axis=-2)


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

    def forward(self, x, mode=TRAIN):
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


def dropout_keep(rate, shape, rng):
    """The inverted-dropout multiplier of a ``shape`` batch: 0 for a unit
    dropped with probability ``rate``, 1/(1-rate) for a kept one. ``rng``
    is one Generator, or one per member of a stacked (M, ...) batch, each
    drawing its slice as alone."""
    if rng is None:
        raise ContractError("dropout in train mode needs an rng")
    if isinstance(rng, np.random.Generator):
        u = rng.random(shape)
    else:
        u = np.empty(shape)
        for r, u_m in zip(rng, u):
            r.random(out=u_m)
    return (u >= rate) / (1.0 - rate)


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

        def gates(fan_in):
            # each gate's (hidden, fan_in) block is glorot-uniform; one draw
            # fills the four in gate order, as four draws would
            if rng is None:
                return np.zeros((4 * hidden, fan_in))
            bound = np.sqrt(6.0 / (fan_in + hidden))
            return rng.uniform(-bound, bound, size=(4 * hidden, fan_in))

        wx, wh = gates(d_in), gates(hidden)
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0
        self.Wx = ParamTensor(f"{name}.Wx", wx)
        self.Wh = ParamTensor(f"{name}.Wh", wh)
        self.b = ParamTensor(f"{name}.b", b)

    def params(self):
        return [self.Wx, self.Wh, self.b]


def _fronts(buffer, shapes):
    """Consecutive arrays of ``shapes`` from the front of the flat
    ``buffer``, or from a new one when it is None."""
    sizes = [math.prod(shape) for shape in shapes]
    if buffer is None:
        buffer = np.empty(sum(sizes))
    ends = np.cumsum(sizes).tolist()
    return [buffer[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, ends)]


def _training_arrays(buffer, xs_shape, lead, H):
    """The BPTT cache of a (..., T, B, D) time-major batch (the inputs, the
    gates, and the cell states c_-1..c_T-1 with the zero initial state in
    slot 0) and then one flat work region, consecutive from the front of
    ``buffer`` (``_fronts``). The work region holds a step's rows: the
    forward's gate product and two (..., B, H) rows, the backward's six
    rows, or one gate block's weight-gradient product."""
    *_, T, B, D = xs_shape
    work = math.prod(lead) * max(6 * B * H, H * max(D, H))
    return _fronts(buffer, [xs_shape, (*lead, T, B, 4 * H),
                            (*lead, T + 1, B, H), (work,)])


def lstm_forward(params: LSTMParams, xs, keep_caches=True):
    """Run a (..., B, T, D) batch through the cell from zero state.

    Each step computes ``z = (x_t Wx^T + h Wh^T) + b``, a sigmoid over the
    input, forget and output gate slices of the (..., B, 4H) block and a
    tanh over its cell slice. Returns the final hidden state (..., B, H) and
    the BPTT cache: a time-major copy of the inputs and the per-step gates,
    as (..., T, B, .) arrays, and the cell states as a (..., T+1, B, H)
    array whose slot 0 is the zero initial state and slot t+1 step t's c;
    consecutive views of one flat buffer (their ``.base``). Neither the
    hidden states nor tanh(c) are stored: ``lstm_backward`` recomputes
    tanh(c) from c, and each h as ``o * tanh(c)``. With
    ``keep_caches=False`` (inference) nothing is stored and the cache is
    None, so memory stays flat in T. Stacked parameters take xs of shape
    (M, B, T, D), or (B, T, D) shared by all members.

    A training forward allocates one flat buffer for its cache and the
    work region after it (``_training_arrays``), in which it and
    ``lstm_backward`` do their per-step work.
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
    xs_t = xs.swapaxes(-3, -2)  # (..., T, B, D), a view
    block, row = (*lead, B, 4 * H), (*lead, B, H)
    if keep_caches:
        cache = _training_arrays(None, xs_t.shape, lead, H)
        cache[0][...] = xs_t  # time-major: backward's products take it as is
        xs_t, gates, cs, work = cache
        za, tg, tc = _fronts(work, [block, row, row])
        c = cs[..., 0, :, :]
    else:  # inference: one gate block and its work, rewritten every step
        a, za, tg, tc, c = _fronts(None, [block] * 2 + [row] * 3)
    h = np.zeros(row)
    c[...] = 0.0
    for t in range(T):
        c_in = c
        if keep_caches:
            a, c = gates[..., t, :, :], cs[..., t + 1, :, :]
        np.matmul(xs_t[..., t, :, :], WxT, out=a)
        a += np.matmul(h, WhT, out=za)
        a += params.b.values[..., None, :]
        i, f, g, o = (a[..., :H], a[..., H:2 * H], a[..., 2 * H:3 * H],
                      a[..., 3 * H:])
        np.tanh(g, out=tg)
        sigmoid(a, out=a)  # one pass over the contiguous block
        g[...] = tg
        np.multiply(c_in, f, out=c)  # c = f * c + i * g
        c += np.multiply(i, g, out=tg)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
    return h, ((xs_t, gates, cs) if keep_caches else None)


def lstm_backward(params: LSTMParams, cache, dh_last):
    """BPTT from a gradient on the final hidden state; accumulates the
    ``Wx``, ``Wh`` and ``b`` gradients and returns nothing (the inputs are
    frozen features, so no input gradient is formed).

    The time loop carries only ``dh`` and ``dc``: each step recomputes its
    tanh(c) from its c into a work row, writes the hidden state it
    produced, ``o * tanh(c)``, over that c, which nothing reads again, and
    writes its pre-activation gradient dz over its gate cache. So the cell
    states end as the per-step input hidden states (slot 0 stays the zero
    initial state), and a cache serves one backward pass. Each step
    computes the textbook expressions in their operation order, each into
    a fixed row of the work region that follows the cache in its buffer
    (``xs.base``). Each weight gradient then gets one gate's block of rows
    at a time, ``grad[k] += dz_k^T X`` over all (T * B) rows, through one
    block of the same region; so a backward pass allocates no (B, H) row
    and no (4H, .) product. Step 0 forms no ``dh`` or ``dc`` for the step
    before it: those are the gradients of the constant zero initial state,
    which nothing reads.
    """
    xs, gates, cs = cache
    *lead, T, B, _ = gates.shape
    D, H = xs.shape[-1], params.hidden
    *_, work = _training_arrays(xs.base, xs.shape, lead, H)
    dh, dc, do, dcell, s, tc = _fronts(work, [(*lead, B, H)] * 6)
    dh[...] = dh_last
    dc[...] = 0.0
    for t in reversed(range(T)):
        a = gates[..., t, :, :]
        i, f, g, o = (a[..., :H], a[..., H:2 * H], a[..., 2 * H:3 * H],
                      a[..., 3 * H:])
        np.tanh(cs[..., t + 1, :, :], out=tc)
        np.multiply(o, tc, out=cs[..., t + 1, :, :])  # h over the spent c
        np.multiply(dh, tc, out=do)
        np.multiply(tc, tc, out=s)  # dcell = dc + dh * o * (1 - tc * tc)
        np.subtract(1.0, s, out=s)
        np.multiply(dh, o, out=dcell)
        dcell *= s
        dcell += dc
        # each gate's dz goes over the gate once nothing reads it
        do *= o  # o: do * o * (1 - o)
        np.subtract(1.0, o, out=s)
        np.multiply(do, s, out=o)
        np.multiply(dcell, cs[..., t, :, :], out=do)  # f: df * f * (1 - f)
        do *= f
        np.subtract(1.0, f, out=s)
        if t:  # the next step's dc, before f goes
            np.multiply(dcell, f, out=dc)
        np.multiply(do, s, out=f)
        np.multiply(dcell, g, out=do)  # i: di * i * (1 - i)
        np.multiply(dcell, i, out=s)  # dg, before i goes
        do *= i
        np.subtract(1.0, i, out=dcell)
        np.multiply(do, dcell, out=i)
        np.multiply(g, g, out=do)  # g: dg * (1 - g * g)
        np.subtract(1.0, do, out=do)
        np.multiply(s, do, out=g)
        if t:
            np.matmul(a, params.Wh.values, out=dh)
    dz = gates.reshape(*lead, T * B, 4 * H)
    dzT = dz.swapaxes(-1, -2)
    for p, rows in ((params.Wx, xs.reshape(*xs.shape[:-3], T * B, D)),
                    (params.Wh, cs[..., :T, :, :].reshape(*lead, T * B, H))):
        part, = _fronts(work, [(*lead, H, rows.shape[-1])])
        for k in range(0, 4 * H, H):  # one gate's rows at a time
            p.grad[..., k:k + H, :] += np.matmul(dzT[..., k:k + H, :], rows,
                                                 out=part)
    params.b.grad += dz.sum(axis=-2)


# -- MLP head ------------------------------------------------------------------

class MLPHead:
    """linear -> batch-norm -> ReLU -> dropout -> linear, for per-clip vectors
    (..., B, d_in).

    The hidden linear is bias-free: batch-norm's shift parameter plays that
    role, and a bias in front of the mean subtraction would be untrainable.
    ``dropout`` is the rate of inverted dropout in train mode
    (``dropout_keep``); eval mode drops nothing.
    """

    def __init__(self, d_in, hidden, n_classes, dropout=0.0, rng=None, name="mlp"):
        if not (0.0 <= dropout < 1.0):
            raise ContractError(f"dropout rate must be in [0, 1), got {dropout}")
        self.hidden_layer = Linear(d_in, hidden, rng=rng, name=f"{name}.hidden",
                                   bias=False)
        self.bn = BatchNorm(hidden, name=f"{name}.bn")
        self.out_layer = Linear(hidden, n_classes, rng=rng, name=f"{name}.out")
        self.dropout = dropout
        self.d_in, self.hidden, self.n_classes = d_in, hidden, n_classes

    def params(self):
        return (self.hidden_layer.params() + self.bn.params() + self.out_layer.params())

    def forward(self, x, mode=TRAIN, rng=None):
        """Logits and the backward cache. A train-mode forward with dropout
        draws its masks from ``rng``, one Generator or one per member."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h, c1 = self.hidden_layer.forward(x)
        hn, c2 = self.bn.forward(h, mode)
        a = np.maximum(hn, 0.0)
        keep = None
        if mode == TRAIN and self.dropout > 0.0:
            keep = dropout_keep(self.dropout, a.shape, rng)
            a *= keep
        logits, c3 = self.out_layer.forward(a)
        return logits, (c1, c2, hn, keep, c3)

    def backward(self, cache, grad_out):
        """Accumulate every parameter's gradient; returns nothing (the
        input features are frozen)."""
        c1, c2, hn, keep, c3 = cache
        g = np.atleast_2d(grad_out)
        self.out_layer.backward(c3, g)
        g = g @ self.out_layer.W.values
        if keep is not None:
            g *= keep
        g = self.bn.backward(c2, g * (hn > 0))
        self.hidden_layer.backward(c1, g)


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
