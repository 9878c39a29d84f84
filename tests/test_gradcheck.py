import numpy as np
import pytest

from smallclip.errors import ContractError
from smallclip.nn import (Linear, MLPHead, ParamTensor,
                          softmax_cross_entropy_batch, stack_members)

from conftest import grad_check, softmax_cross_entropy


def projection_loss(module, x, proj):
    """Scalar loss sum(proj * forward(x)), in train mode for an MLP. The
    input is frozen: backward accumulates the parameter gradients and
    returns nothing."""
    def loss_fn(compute_grad):
        out, cache = module.forward(x)
        loss = float((out * proj).sum())
        if compute_grad:
            assert module.backward(cache, proj) is None
        return loss
    return loss_fn


def test_linear_grad_check(rng):
    lin = Linear(4, 3, rng=rng)
    x = rng.standard_normal((2, 4))
    proj = rng.standard_normal((2, 3))
    err = grad_check(projection_loss(lin, x, proj), lin.params())
    assert err < 1e-7


def test_mlp_head_grad_check(rng):
    # the hidden layer's gradients check the input gradients the MLP forms
    # itself, from the output layer's down through batch-norm
    mlp = MLPHead(5, 6, 4, dropout=0.0, rng=rng)
    x = rng.standard_normal((3, 5))
    proj = rng.standard_normal((3, 4))
    err = grad_check(projection_loss(mlp, x, proj), mlp.params())
    assert err < 1e-4


def test_mlp_head_with_cross_entropy(rng):
    mlp = MLPHead(5, 4, 3, dropout=0.0, rng=rng)
    x = rng.standard_normal((4, 5))
    labels = np.array([0, 2, 1, 1])

    def loss_fn(compute_grad):
        logits, cache = mlp.forward(x, mode="train")
        total = 0.0
        dlogits = np.zeros_like(logits)
        for i, lab in enumerate(labels):
            loss, grad, _ = softmax_cross_entropy(logits[i], lab)
            total += loss
            dlogits[i] = grad
        if compute_grad:
            assert mlp.backward(cache, dlogits) is None
        return total

    err = grad_check(loss_fn, mlp.params())
    assert err < 1e-4


def test_stacked_mlp_head_grad_check(rng):
    M, B, D, C = 3, 5, 4, 3
    stack = stack_members([MLPHead(D, 6, C, dropout=0.4,
                                   rng=np.random.default_rng(m))
                           for m in range(M)])
    x = rng.standard_normal((M, B, D))
    labels = rng.integers(0, C, size=(M, B))

    def loss_fn(compute_grad):
        # one rng per member, reseeded so every call draws the same masks
        rngs = [np.random.default_rng(10 + m) for m in range(M)]
        logits, cache = stack.forward(x, mode="train", rng=rngs)
        loss, dlogits, _ = softmax_cross_entropy_batch(logits, labels)
        if compute_grad:
            assert stack.backward(cache, dlogits) is None
        return float(loss.sum())

    err = grad_check(loss_fn, stack.params())
    assert err < 1e-4


def test_corrupted_backward_detected(rng):
    lin = Linear(3, 2, rng=rng)
    x_t = ParamTensor("x", rng.standard_normal(3))
    proj = rng.standard_normal(2)

    def loss_fn(compute_grad):
        out, cache = lin.forward(x_t.values)
        if compute_grad:
            lin.backward(cache, proj)
            lin.W.grad *= 1.5  # sabotage
            x_t.grad += lin.W.values.T @ proj
        return float((out * proj).sum())

    err = grad_check(loss_fn, lin.params() + [x_t])
    assert err > 1e-2


def test_grad_check_eps_contract():
    with pytest.raises(ContractError):
        grad_check(lambda g: 0.0, [], eps=0.0)
