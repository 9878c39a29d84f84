"""SGD-with-momentum and Adam over lists of ParamTensor.

An optimizer step consumes the accumulated ``.grad`` of every parameter and
zeroes it afterward. A non-finite gradient aborts with a TrainingError naming
the offending parameter.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, TrainingError


class SGD:
    kind = "sgd-momentum"

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
    kind = "adam"

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
    if kind == "adam":
        return Adam(params, lr=1e-3 if lr is None else lr)
    if kind in ("sgd", "sgd-momentum"):
        return SGD(params, lr=0.01 if lr is None else lr, momentum=momentum)
    raise ConfigError(f"unknown optimizer {kind!r}")
