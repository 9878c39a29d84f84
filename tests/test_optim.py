import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from smallclip import optim
from smallclip.errors import ConfigError, TrainingError
from smallclip.nn import ParamTensor
from smallclip.optim import SGD, Adam, make_optimizer


def scalar_param(value=0.0):
    return ParamTensor("w", np.array([value]))


def test_sgd_plain_step():
    p = scalar_param(0.0)
    opt = SGD([p], lr=0.1)
    p.grad[:] = 1.0
    opt.step()
    np.testing.assert_allclose(p.values, [-0.1], atol=1e-15)
    np.testing.assert_array_equal(p.grad, [0.0])  # zeroed after step


def test_sgd_zero_grad_no_change():
    p = scalar_param(0.7)
    opt = SGD([p], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.values, [0.7])


def test_sgd_momentum_accumulates():
    p = scalar_param(0.0)
    opt = SGD([p], lr=0.1, momentum=0.9)
    p.grad[:] = 1.0
    opt.step()  # v=1, step -0.1
    p.grad[:] = 1.0
    opt.step()  # v=1.9, step -0.19
    np.testing.assert_allclose(p.values, [-0.29], atol=1e-15)


def test_adam_first_step_hand_value():
    # m_hat = g, v_hat = g^2 at t=1, so the step is -lr * g/(|g| + eps).
    p = scalar_param(0.0)
    opt = Adam([p], lr=0.001)
    p.grad[:] = 1.0
    opt.step()
    assert abs(p.values[0] + 0.001) < 1e-9


def _reference_step(kind, params, state, t, lr, momentum):
    """One step written as the textbook expressions, with temporaries."""
    for p, st in zip(params, state):
        g = p.grad
        if kind == "adam":
            m, v = st
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p.values -= lr * (m / (1.0 - 0.9 ** t)) / (
                np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        elif momentum != 0.0:
            st *= momentum
            st += g
            p.values -= lr * st
        else:
            p.values -= lr * g
        p.zero_grad()


@pytest.mark.parametrize("kind,momentum", [("adam", 0.0), ("sgd", 0.9),
                                           ("sgd", 0.0)])
def test_in_place_steps_match_reference_expressions(kind, momentum):
    rng = np.random.default_rng(3)
    # the last spans two full Adam chunks and a remainder
    shapes = [(4, 3), (3,), (2, 2, 2), (1,), (5, optim.BLOCK // 2 + 3)]
    params = [ParamTensor(f"p{i}", rng.normal(size=s))
              for i, s in enumerate(shapes)]
    ref = [ParamTensor(p.name, p.values.copy()) for p in params]
    opt = (Adam(params, lr=0.01) if kind == "adam"
           else SGD(params, lr=0.01, momentum=momentum))
    state = [(np.zeros(s), np.zeros(s)) if kind == "adam" else np.zeros(s)
             for s in shapes]
    for t in range(1, 6):
        for p, r in zip(params, ref):
            p.grad[...] = r.grad[...] = rng.normal(size=p.shape) * 10.0 ** t
        opt.step()
        _reference_step(kind, ref, state, t, 0.01, momentum)
        for p, r in zip(params, ref):
            np.testing.assert_array_equal(p.values, r.values)
            np.testing.assert_array_equal(p.grad, 0.0)


@pytest.mark.parametrize("kind,momentum", [("adam", 0.0), ("sgd", 0.9),
                                           ("sgd", 0.0)])
def test_an_optimizer_holds_one_scratch_buffer(kind, momentum):
    rng = np.random.default_rng(5)
    shapes = [(4, 3), (64, 160), (3,), (1,)]  # one of 2.5 Adam chunks
    params = [ParamTensor(f"p{i}", rng.normal(size=s))
              for i, s in enumerate(shapes)]
    ref = [ParamTensor(p.name, p.values.copy()) for p in params]
    opt = (Adam(params, lr=0.01) if kind == "adam"
           else SGD(params, lr=0.01, momentum=momentum))
    # Adam's one scratch buffer is the fixed block, whatever the parameter
    # sizes; SGD forms its update in the spent gradient and holds none
    if kind == "adam":
        assert opt._scratch.shape == (optim.BLOCK,)
        assert 64 * 160 > optim.BLOCK
    else:
        assert not hasattr(opt, "_scratch")
    state = [(np.zeros(s), np.zeros(s)) if kind == "adam" else np.zeros(s)
             for s in shapes]
    for t in range(1, 4):
        for p, r in zip(params, ref):
            p.grad[...] = r.grad[...] = rng.normal(size=p.shape)
        tracemalloc.start()
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * optim.BLOCK  # no array larger than the block
        _reference_step(kind, ref, state, t, 0.01, momentum)
        for p, r in zip(params, ref):
            np.testing.assert_array_equal(p.values, r.values)
            np.testing.assert_array_equal(p.grad, 0.0)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_nonfinite_grad_raises_before_the_step(kind, monkeypatch):
    # A stack of two members; member 1's gradient turns non-finite at the
    # third step, which must raise without touching parameters or moments.
    made = []

    def capture(*args, **kwargs):
        made.append(make_optimizer(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(optim, "make_optimizer", capture)
    W = ParamTensor("W", np.ones((2, 3)))
    b = ParamTensor("b", np.zeros((2, 3)))
    calls = []
    snapshot = {}

    def step(batch):
        calls.append(batch)
        W.grad[...] = 0.5 * len(calls)
        b.grad[...] = -0.25
        if len(calls) == 3:
            W.grad[1, 2] = np.nan
            opt = made[0]
            moments = opt.m + opt.v if kind == "adam" else opt.velocity
            snapshot["params"] = [W.values.copy(), b.values.copy()]
            snapshot["moments"] = [a.copy() for a in moments]
        return np.ones(2)

    config = SimpleNamespace(optimizer=kind, momentum=0.9, batch_size=2)
    rngs = [np.random.default_rng(s) for s in (7, 8)]
    with pytest.raises(TrainingError, match="non-finite gradient at epoch 0 "
                                            "in the member with seed 8"):
        optim.train_minibatches([W, b], step, rngs, [7, 8], n=6, epochs=1,
                                lr=0.1, config=config)
    assert len(calls) == 3 and made[0].step_count == 2
    opt = made[0]
    moments = opt.m + opt.v if kind == "adam" else opt.velocity
    for now, before in zip([W.values, b.values] + moments,
                           snapshot["params"] + snapshot["moments"]):
        np.testing.assert_array_equal(now, before)
    assert np.any(snapshot["moments"][0] != 0.0)  # two steps did run


def test_make_optimizer():
    p = scalar_param()
    assert isinstance(make_optimizer([p], "adam"), Adam)
    assert isinstance(make_optimizer([p], "sgd", lr=0.5), SGD)
    for kind in ("nadam", "sgd-momentum"):
        with pytest.raises(ConfigError, match=rf"unknown optimizer '{kind}', "
                                              "expected one of adam, sgd"):
            make_optimizer([p], kind)

