import numpy as np
import pytest

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


def test_nonfinite_grad_names_parameter():
    p = ParamTensor("mlp.hidden.W", np.zeros(2))
    opt = Adam([p])
    p.grad[:] = np.inf
    with pytest.raises(TrainingError, match="mlp.hidden.W"):
        opt.step()


def test_make_optimizer():
    p = scalar_param()
    assert isinstance(make_optimizer([p], "adam"), Adam)
    assert isinstance(make_optimizer([p], "sgd", lr=0.5), SGD)
    for kind in ("nadam", "sgd-momentum"):
        with pytest.raises(ConfigError, match=rf"unknown optimizer '{kind}', "
                                              "expected one of adam, sgd"):
            make_optimizer([p], kind)

