"""SGD-with-momentum and Adam over lists of ParamTensor, and the one
minibatch training loop that every gradient-trained model runs.

An optimizer step consumes the accumulated ``.grad`` of every parameter and
zeroes it afterward. A non-finite gradient aborts with a TrainingError naming
the offending parameter. ``train_minibatches`` checks each member's loss and
gradient before that, so a training run names the epoch and the member's
seed instead.
"""

from __future__ import annotations

import numpy as np

from .config import OPTIMIZERS
from .errors import ConfigError, TrainingError
from .nn import softmax


class SGD:
    def __init__(self, params, lr=0.01, momentum=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.step_count = 0
        self.velocity = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        _check_finite(self.params)
        self.step_count += 1
        for p, v in zip(self.params, self.velocity):
            if self.momentum != 0.0:
                v *= self.momentum
                v += p.grad
                p.values -= self.lr * v
            else:
                p.values -= self.lr * p.grad
            p.zero_grad()


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        _check_finite(self.params)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            p.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.zero_grad()


def _check_finite(params):
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise TrainingError(f"non-finite gradient in parameter {p.name!r}")


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
    parameter, or all of it in a stack of one."""
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
                      val=None, phase=None):
    """Train M members stacked on a leading axis; returns one log per member.

    Each epoch, member m orders the ``n`` train rows by
    ``rngs[m].permutation(n)`` and cuts them into ``config.batch_size``
    slices. ``step(batch)`` gets one slice's (M, b) row indices, adds each
    member's gradient into ``params`` (stacked, or a stack of one's own)
    and returns the (M,) mean losses; the loss and gradient of every member
    are checked (``_check_stack_finite``) before one optimizer of
    ``config.optimizer`` at ``lr`` steps all ``params``. A log is one dict
    per epoch: the size-weighted mean train loss and, when ``val`` is
    ``(val_logits, labels)``, the accuracy of the argmax of one softmax over
    the (M, N, C) logits ``val_logits()`` returns (else None).
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
        accs = [None] * len(rngs)
        if val is not None:
            val_logits, labels = val
            pred = softmax(val_logits(), axis=-1).argmax(axis=-1)
            accs = [int(h) / len(labels) for h in (pred == labels).sum(axis=1)]
        for log, t, acc in zip(logs, total, accs):
            log.append({"epoch": epoch, "train_loss": float(t) / n,
                        "val_accuracy": acc})
    return logs
