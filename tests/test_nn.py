import numpy as np
import pytest

from smallclip import nn
from smallclip.errors import ContractError
from smallclip.nn import (
    BatchNorm, Dropout, Linear, LSTMParams, MLPHead, ParamTensor, ReLU,
    lstm_backward, lstm_forward, lstm_step, lstm_step_backward, sigmoid,
    softmax, softmax_cross_entropy, softmax_cross_entropy_batch,
)


def test_linear_identity():
    lin = Linear(3, 3)
    lin.W.values[:] = np.eye(3)
    x = np.array([1.0, -2.0, 0.5])
    y, _ = lin.forward(x)
    np.testing.assert_array_equal(y, x)


def test_linear_backward_analytic(rng):
    lin = Linear(4, 3, rng=rng)
    x = rng.standard_normal(4)
    _, cache = lin.forward(x)
    g = rng.standard_normal(3)
    gx = lin.backward(cache, g)
    np.testing.assert_allclose(gx, lin.W.values.T @ g, atol=1e-12)
    np.testing.assert_allclose(lin.W.grad, np.outer(g, x), atol=1e-12)
    np.testing.assert_allclose(lin.b.grad, g, atol=1e-12)


def test_linear_shape_error():
    lin = Linear(4, 3)
    with pytest.raises(ContractError):
        lin.forward(np.zeros(5))


def test_relu_backward():
    relu = ReLU()
    y, cache = relu.forward(np.array([-1.0, 2.0]))
    np.testing.assert_array_equal(y, [0.0, 2.0])
    np.testing.assert_array_equal(relu.backward(cache, np.array([1.0, 1.0])), [0.0, 1.0])


def test_batchnorm_hand_computed():
    # Batch [[1],[3]]: mean 2, var 1 -> outputs ~[-1, 1].
    bn = BatchNorm(1)
    y, _ = bn.forward(np.array([[1.0], [3.0]]), mode="train")
    np.testing.assert_allclose(y.ravel(), [-1.0, 1.0], atol=1e-4)


def test_batchnorm_eval_is_affine():
    rng = np.random.default_rng(1)
    bn = BatchNorm(3)
    for _ in range(5):  # accumulate running stats
        bn.forward(rng.standard_normal((8, 3)), mode="train")
    x = rng.standard_normal(3)
    alone, _ = bn.forward(x[None, :], mode="eval")
    with_others, _ = bn.forward(np.vstack([x, rng.standard_normal((4, 3))]), mode="eval")
    np.testing.assert_array_equal(alone[0], with_others[0])


def test_dropout_eval_identity():
    drop = Dropout(0.5)
    x = np.random.default_rng(0).standard_normal((4, 5))
    y, _ = drop.forward(x, mode="eval")
    np.testing.assert_array_equal(y, x)


def test_dropout_train_fraction_and_scaling():
    drop = Dropout(0.3)
    rng = np.random.default_rng(7)
    x = np.ones(10_000)
    y, _ = drop.forward(x, mode="train", rng=rng)
    zeroed = np.mean(y == 0.0)
    # ~4 sigma band around the rate
    assert abs(zeroed - 0.3) < 0.02
    kept = y[y != 0.0]
    np.testing.assert_allclose(kept, 1.0 / 0.7)


def test_dropout_needs_rng_in_train():
    with pytest.raises(ContractError):
        Dropout(0.5).forward(np.ones(3), mode="train")


def test_dropout_bad_rate():
    with pytest.raises(ContractError):
        Dropout(1.0)


def test_softmax_properties(rng):
    for _ in range(20):
        p = softmax(rng.standard_normal(9) * 10)
        assert np.all(p > 0) and np.all(p < 1)
        assert abs(p.sum() - 1.0) < 1e-9


def test_softmax_cross_entropy_uniform():
    loss, grad, probs = softmax_cross_entropy(np.zeros(7), 2)
    np.testing.assert_allclose(probs, np.full(7, 1 / 7), atol=1e-15)
    np.testing.assert_allclose(loss, np.log(7.0), atol=1e-12)


def test_softmax_cross_entropy_stability():
    loss, grad, probs = softmax_cross_entropy(np.array([1000.0, 0.0]), 0)
    assert np.isfinite(loss) and loss < 1e-12
    assert np.all(np.isfinite(grad))


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ContractError):
        softmax_cross_entropy(np.zeros(3), 3)


def test_softmax_cross_entropy_grad_fd(rng):
    # Direct finite differences at 1e-6 relative.
    logits = rng.standard_normal(5)
    label = 3
    _, grad, _ = softmax_cross_entropy(logits, label)
    eps = 1e-6
    for i in range(5):
        lp = logits.copy(); lp[i] += eps
        lm = logits.copy(); lm[i] -= eps
        num = (softmax_cross_entropy(lp, label)[0] - softmax_cross_entropy(lm, label)[0]) / (2 * eps)
        assert abs(grad[i] - num) / max(abs(grad[i]), abs(num), 1e-8) < 1e-6


def test_batch_cross_entropy_matches_single(rng):
    logits = rng.standard_normal((4, 6))
    labels = np.array([0, 5, 2, 2])
    loss_b, grad_b, _ = softmax_cross_entropy_batch(logits, labels)
    singles = [softmax_cross_entropy(logits[i], labels[i]) for i in range(4)]
    np.testing.assert_allclose(loss_b, np.mean([s[0] for s in singles]), atol=1e-12)
    np.testing.assert_allclose(grad_b, np.stack([s[1] for s in singles]) / 4, atol=1e-12)


def test_stacked_cross_entropy_matches_each_model(rng):
    logits = rng.standard_normal((3, 5, 4))
    labels = rng.integers(0, 4, size=(3, 5))
    loss, grad, probs = softmax_cross_entropy_batch(logits, labels)
    assert loss.shape == (3,)
    for m in range(3):
        loss_m, grad_m, probs_m = softmax_cross_entropy_batch(logits[m],
                                                              labels[m])
        assert type(loss_m) is float and loss[m] == loss_m
        assert np.array_equal(grad[m], grad_m)
        assert np.array_equal(probs[m], probs_m)
    with pytest.raises(ContractError, match="batch shapes mismatch"):
        softmax_cross_entropy_batch(logits, labels[:, :4])
    with pytest.raises(ContractError, match="batch shapes mismatch"):
        softmax_cross_entropy_batch(logits[0, 0], labels[0, 0])


# -- LSTM ------------------------------------------------------------------

def test_lstm_zero_fixed_point():
    p = LSTMParams(3, 2)
    p.b.values[:] = 0.0  # clear the forget-bias init
    (h, c), _ = lstm_step(p, (np.zeros(2), np.zeros(2)), np.zeros(3))
    np.testing.assert_array_equal(h, np.zeros(2))
    np.testing.assert_array_equal(c, np.zeros(2))


def test_lstm_forget_bias_default_one():
    p = LSTMParams(3, 4)
    np.testing.assert_array_equal(p.b.values[4:8], np.ones(4))
    np.testing.assert_array_equal(p.b.values[:4], np.zeros(4))
    np.testing.assert_array_equal(p.b.values[8:], np.zeros(8))


def test_lstm_large_forget_bias_closed_form():
    # With f ~ 1 the cell accumulates: c' ~ c + i*g. H=2, D=2,
    # closed-form gate equations evaluated independently below.
    H = 2
    p = LSTMParams(2, H)
    rng = np.random.default_rng(3)
    wx = rng.standard_normal((4 * H, 2)) * 0.5
    wx[H:2 * H] = 0.0  # forget gate driven only by its bias
    p.Wx.values[:] = wx
    p.b.values[H:2 * H] = 50.0
    x = np.array([0.7, -1.2])
    c0 = np.array([0.3, -0.4])
    h0 = np.zeros(H)
    (h1, c1), _ = lstm_step(p, (h0, c0), x)

    z = p.Wx.values @ x + p.b.values
    i = 1 / (1 + np.exp(-z[0:H]))
    g = np.tanh(z[2 * H:3 * H])
    o = 1 / (1 + np.exp(-z[3 * H:4 * H]))
    np.testing.assert_allclose(c1, c0 + i * g, atol=1e-8)
    np.testing.assert_allclose(h1, o * np.tanh(c0 + i * g), atol=1e-8)


def test_lstm_step_shape_error():
    p = LSTMParams(3, 2)
    with pytest.raises(ContractError):
        lstm_step(p, (np.zeros(2), np.zeros(2)), np.zeros(4))


def test_lstm_forward_purity(rng):
    p = LSTMParams(4, 3, rng=rng)
    xs = rng.standard_normal((2, 5, 4))
    h1, _ = lstm_forward(p, xs)
    h2, _ = lstm_forward(p, xs)
    np.testing.assert_array_equal(h1, h2)


def test_lstm_forward_without_caches_matches(rng):
    p = LSTMParams(4, 3, rng=rng)
    xs = rng.standard_normal((6, 5, 4))
    h, caches = lstm_forward(p, xs)
    h_free, no_caches = lstm_forward(p, xs, keep_caches=False)
    np.testing.assert_array_equal(h_free, h)
    assert len(caches) == 5 and no_caches == []


def masked_sigmoid(x):
    """Reference: exp only of non-positive arguments, selected by sign."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.filterwarnings("error")
def test_sigmoid_matches_reference_and_stays_positive(rng):
    x = np.concatenate([np.linspace(-745.0, 745.0, 20001),
                        rng.standard_normal(20000) * 8.0])
    np.testing.assert_allclose(sigmoid(x), masked_sigmoid(x), rtol=0,
                               atol=2 * np.finfo(np.float64).eps)
    # 0.5 * (1 + tanh(x / 2)) rounds to exactly 0 here; pool_weighted
    # needs strictly positive frame weights.
    assert sigmoid(-40.0) > 0 and sigmoid(-700.0) > 0
    assert sigmoid(0.0) == 0.5 and sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == 0.0  # exp overflows without a warning


def test_forward_purity_linear_and_mlp(rng):
    lin = Linear(4, 3, rng=rng)
    x = rng.standard_normal((2, 4))
    np.testing.assert_array_equal(lin.forward(x)[0], lin.forward(x)[0])
    mlp = MLPHead(4, 6, 3, dropout=0.0, rng=rng)
    y1, _ = mlp.forward(x, mode="train")
    y2, _ = mlp.forward(x, mode="train")
    np.testing.assert_array_equal(y1, y2)
