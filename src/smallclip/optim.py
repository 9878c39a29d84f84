"""SGD-with-momentum and Adam over lists of ParamTensor, and the one
minibatch training loop that every gradient-trained model runs.

An optimizer step consumes the accumulated ``.grad`` of every parameter and
zeroes it afterward. It updates in place, in the operation order of the
textbook expressions, so its results are those expressions' bit for bit.
SGD forms ``lr * v`` in the spent gradient and holds no scratch. Adam steps
each parameter in consecutive chunks of at most ``BLOCK`` elements through
one scratch buffer of that size, so its working set is one fixed block
whatever the parameter sizes, and forms its denominator in the spent
gradient. A step does not check its
gradients: ``train_minibatches`` checks each member's loss and gradient
before every step, so a non-finite one raises a TrainingError naming the
epoch and the member's seed and leaves parameters and moments untouched.
"""

from __future__ import annotations

import numpy as np

from .config import OPTIMIZERS
from .errors import ConfigError, TrainingError

BLOCK = 4096  # elements per Adam chunk: 32 KB of float64


class SGD:
    def __init__(self, params, lr=0.01, momentum=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.step_count = 0
        self.velocity = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        """``v = momentum * v + g; p -= lr * v``, or ``p -= lr * g``
        without momentum."""
        self.step_count += 1
        for p, v in zip(self.params, self.velocity):
            g = p.grad
            if self.momentum != 0.0:
                v *= self.momentum
                v += g
                np.multiply(v, self.lr, out=g)
            else:
                g *= self.lr
            p.values -= g
            p.zero_grad()


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]
        self._scratch = np.empty(BLOCK)

    def step(self):
        """``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
        ``p -= lr (m / bc1) / (sqrt(v / bc2) + eps)``, with the bias
        corrections ``bc = 1 - b ** t``. Once a chunk's ``m`` and ``v`` hold
        their new values, its denominator is formed in the spent gradient.
        Every operation is elementwise, so chunking changes no bit."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            # parameter arrays are C-contiguous, so these are views
            flat = [a.reshape(-1) for a in (p.values, p.grad, m, v)]
            for start in range(0, p.values.size, BLOCK):
                x, g, m, v = (a[start:start + BLOCK] for a in flat)
                s = self._scratch[:g.size]
                m *= self.beta1
                m += np.multiply(g, 1.0 - self.beta1, out=s)
                v *= self.beta2
                np.multiply(g, 1.0 - self.beta2, out=s)
                v += np.multiply(s, g, out=s)
                np.divide(m, bc1, out=s)
                s *= self.lr
                np.divide(v, bc2, out=g)
                np.sqrt(g, out=g)
                g += self.eps
                s /= g
                x -= s
            p.zero_grad()


def make_optimizer(params, kind="adam", lr=None, momentum=0.9):
    if kind not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {kind!r}, expected one of "
                          f"{', '.join(OPTIMIZERS)}")
    if kind == "adam":
        return Adam(params, lr=1e-3 if lr is None else lr)
    return SGD(params, lr=0.01 if lr is None else lr, momentum=momentum)


def _check_stack_finite(epoch, seeds, loss, params, phase=None):
    """TrainingError naming ``epoch`` (of ``phase``, when given) and the
    seed of the first member whose loss or gradient is not finite; nothing
    if all are finite. Member m's gradient is ``p.grad[m]`` of each
    parameter (all of it in a model without the member axis)."""
    bad_loss = ~np.isfinite(loss)
    bad = bad_loss.copy()
    for p in params:
        bad |= ~np.isfinite(p.grad).reshape(len(seeds), -1).all(axis=1)
    if bad.any():
        m = int(np.argmax(bad))
        what = "loss" if bad_loss[m] else "gradient"
        at = f"{phase} epoch" if phase else "epoch"
        raise TrainingError(f"non-finite {what} at {at} {epoch} in the "
                            f"member with seed {seeds[m]}; try a lower lr")


def train_minibatches(params, step, rngs, seeds, n, epochs, lr, config,
                      phase=None):
    """Train M members stacked on a leading axis; returns one log per member.

    Each epoch, member m orders the ``n`` train rows by
    ``rngs[m].permutation(n)`` and cuts them into ``config.batch_size``
    slices. ``step(batch)`` gets one slice's (M, b) row indices, adds each
    member's gradient into its slice of ``params`` and returns the (M,)
    mean losses; the loss and gradient of every member are checked
    (``_check_stack_finite``) before one optimizer of ``config.optimizer``
    at ``lr`` steps all ``params``. A log is one dict per epoch, its
    number and size-weighted mean train loss. Training only trains: no
    split is scored here, so a model's accuracy comes from its batched
    ``predict_batch`` alone.
    """
    opt = make_optimizer(params, config.optimizer, lr=lr,
                         momentum=config.momentum)
    logs = [[] for _ in rngs]
    for epoch in range(epochs):
        perms = np.stack([rng.permutation(n) for rng in rngs])
        total = np.zeros(len(rngs))
        for start in range(0, n, config.batch_size):
            batch = perms[:, start:start + config.batch_size]
            loss = step(batch)
            _check_stack_finite(epoch, seeds, loss, params, phase)
            opt.step()
            total += loss * batch.shape[1]
        for log, t in zip(logs, total):
            log.append({"epoch": epoch, "train_loss": float(t) / n})
    return logs
