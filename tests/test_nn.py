import math
import tracemalloc

import numpy as np
import pytest

from smallclip import nn
from smallclip.errors import ContractError
from smallclip.nn import (
    BatchNorm, Linear, LSTMParams, MLPHead, ParamTensor, dropout_keep,
    lstm_backward, lstm_forward, sigmoid, softmax, softmax_cross_entropy_batch,
)

from conftest import lstm_step, lstm_step_backward, softmax_cross_entropy


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
    # no input gradient: a caller that needs one forms g @ W itself
    assert lin.backward(cache, g) is None
    np.testing.assert_allclose(lin.W.grad, np.outer(g, x), atol=1e-12)
    np.testing.assert_allclose(lin.b.grad, g, atol=1e-12)


def test_linear_shape_error():
    lin = Linear(4, 3)
    with pytest.raises(ContractError):
        lin.forward(np.zeros(5))


def test_relu_backward():
    # the batch [[1], [3]] normalizes to about [-1, 1]: the MLP's ReLU
    # zeroes the first clip's hidden unit and the gradient through it
    mlp = MLPHead(1, 1, 1)
    mlp.hidden_layer.W.values[:] = 1.0
    mlp.out_layer.W.values[:] = 1.0
    logits, cache = mlp.forward(np.array([[1.0], [3.0]]), mode="train")
    assert logits[0, 0] == 0.0
    np.testing.assert_allclose(logits[1], [1.0], atol=1e-4)
    mlp.backward(cache, np.ones((2, 1)))
    assert mlp.bn.beta.grad.tolist() == [1.0]


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
    # eval mode drops nothing: linear -> batch-norm -> ReLU -> linear
    rng = np.random.default_rng(0)
    mlp = MLPHead(5, 8, 3, dropout=0.5, rng=rng)
    x = rng.standard_normal((4, 5))
    y, _ = mlp.forward(x, mode="eval")
    hn, _ = mlp.bn.forward(mlp.hidden_layer.forward(x)[0], mode="eval")
    want, _ = mlp.out_layer.forward(np.maximum(hn, 0.0))
    np.testing.assert_array_equal(y, want)


def test_dropout_train_fraction_and_scaling():
    keep = dropout_keep(0.3, (10_000,), np.random.default_rng(7))
    zeroed = np.mean(keep == 0.0)
    # ~4 sigma band around the rate
    assert abs(zeroed - 0.3) < 0.02
    kept = keep[keep != 0.0]
    np.testing.assert_allclose(kept, 1.0 / 0.7)
    # one rng per member draws each member's slice as alone
    stacked = dropout_keep(0.3, (2, 5, 4),
                           [np.random.default_rng(s) for s in (1, 2)])
    for s, member in zip((1, 2), stacked):
        np.testing.assert_array_equal(
            member, dropout_keep(0.3, (5, 4), np.random.default_rng(s)))


def test_dropout_needs_rng_in_train():
    with pytest.raises(ContractError, match="needs an rng"):
        MLPHead(3, 4, 2, dropout=0.5).forward(np.ones((2, 3)), mode="train")


def test_dropout_bad_rate():
    with pytest.raises(ContractError, match=r"dropout rate must be in \[0, 1\)"):
        MLPHead(3, 4, 2, dropout=1.0)


def test_softmax_properties(rng):
    for _ in range(20):
        p = softmax(rng.standard_normal(9) * 10)
        assert np.all(p > 0) and np.all(p < 1)
        assert abs(p.sum() - 1.0) < 1e-9


def test_softmax_cross_entropy_uniform():
    loss, grad, probs = softmax_cross_entropy_batch(np.zeros((1, 7)), [2])
    np.testing.assert_allclose(probs, np.full((1, 7), 1 / 7), atol=1e-15)
    np.testing.assert_allclose(loss, np.log(7.0), atol=1e-12)


def test_softmax_cross_entropy_stability():
    loss, grad, probs = softmax_cross_entropy_batch(
        np.array([[1000.0, 0.0]]), [0])
    assert np.isfinite(loss) and loss < 1e-12
    assert np.all(np.isfinite(grad))


def test_softmax_cross_entropy_grad_fd(rng):
    # Direct finite differences at 1e-6 relative.
    logits = rng.standard_normal((1, 5))
    label = [3]
    _, grad, _ = softmax_cross_entropy_batch(logits, label)
    eps = 1e-6
    for i in range(5):
        lp = logits.copy(); lp[0, i] += eps
        lm = logits.copy(); lm[0, i] -= eps
        num = (softmax_cross_entropy_batch(lp, label)[0]
               - softmax_cross_entropy_batch(lm, label)[0]) / (2 * eps)
        g = grad[0, i]
        assert abs(g - num) / max(abs(g), abs(num), 1e-8) < 1e-6


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


def test_batch_cross_entropy_rejects_out_of_range_labels(rng):
    logits = rng.standard_normal((2, 4, 3))
    for bad in (-1, 3):
        labels = np.zeros((2, 4), dtype=np.int64)
        labels[1, 2] = bad
        with pytest.raises(ContractError, match=r"labels must be in \[0, 3\)"):
            softmax_cross_entropy_batch(logits, labels)
        with pytest.raises(ContractError, match=r"labels must be in \[0, 3\)"):
            softmax_cross_entropy_batch(logits[1], labels[1])
    # the largest and smallest valid labels still work
    loss, _, _ = softmax_cross_entropy_batch(logits[0], np.array([0, 2, 2, 0]))
    assert np.isfinite(loss)


# -- LSTM ------------------------------------------------------------------

def test_lstm_zero_fixed_point():
    p = LSTMParams(3, 2)
    p.b.values[:] = 0.0  # clear the forget-bias init
    h, (_, gates, cs) = lstm_forward(p, np.zeros((2, 4, 3)))
    np.testing.assert_array_equal(h, np.zeros((2, 2)))
    np.testing.assert_array_equal(cs, np.zeros((5, 2, 2)))
    hs = gates[..., 6:] * np.tanh(cs[1:])  # each step's h = o * tanh(c)
    np.testing.assert_array_equal(hs, np.zeros((4, 2, 2)))


def test_lstm_forget_bias_default_one():
    p = LSTMParams(3, 4)
    np.testing.assert_array_equal(p.b.values[4:8], np.ones(4))
    np.testing.assert_array_equal(p.b.values[:4], np.zeros(4))
    np.testing.assert_array_equal(p.b.values[8:], np.zeros(8))


def test_lstm_large_forget_bias_closed_form():
    # With f ~ 1 the cell accumulates: c2 ~ c1 + i*g. H=2, D=2, Wh = 0 so
    # each step's gates depend on its own input only; closed-form gate
    # equations evaluated independently below.
    H = 2
    p = LSTMParams(2, H)
    rng = np.random.default_rng(3)
    wx = rng.standard_normal((4 * H, 2)) * 0.5
    wx[H:2 * H] = 0.0  # forget gate driven only by its bias
    p.Wx.values[:] = wx
    p.b.values[H:2 * H] = 50.0
    xs = np.array([[[0.4, 0.9], [0.7, -1.2]]])
    h2, (_, cached_gates, cs) = lstm_forward(p, xs)

    def gates(x):
        z = p.Wx.values @ x + p.b.values
        return (1 / (1 + np.exp(-z[0:H])), np.tanh(z[2 * H:3 * H]),
                1 / (1 + np.exp(-z[3 * H:4 * H])))

    i1, g1, o1 = gates(xs[0, 0])
    i2, g2, o2 = gates(xs[0, 1])
    c1 = i1 * g1
    np.testing.assert_allclose(cs[1, 0], c1, atol=1e-8)
    # the cache's h of step 0 is its o times its tanh(c)
    np.testing.assert_allclose(cached_gates[0, 0, 3 * H:] * np.tanh(cs[1, 0]),
                               o1 * np.tanh(c1), atol=1e-8)
    np.testing.assert_allclose(h2[0], o2 * np.tanh(c1 + i2 * g2), atol=1e-8)


def test_lstm_forward_shape_error():
    p = LSTMParams(3, 2)
    for bad in (np.zeros((2, 5, 4)), np.zeros((5, 3))):
        with pytest.raises(ContractError, match="lstm_forward expects"):
            lstm_forward(p, bad)


def test_lstm_forward_purity(rng):
    p = LSTMParams(4, 3, rng=rng)
    xs = rng.standard_normal((2, 5, 4))
    h1, _ = lstm_forward(p, xs)
    h2, _ = lstm_forward(p, xs)
    np.testing.assert_array_equal(h1, h2)


def test_lstm_forward_without_caches_matches(rng):
    p = LSTMParams(4, 3, rng=rng)
    xs = rng.standard_normal((6, 5, 4))
    h, cache = lstm_forward(p, xs)
    h_free, no_cache = lstm_forward(p, xs, keep_caches=False)
    np.testing.assert_array_equal(h_free, h)
    assert no_cache is None
    _, gates, cs = cache
    assert gates.shape == (5, 6, 12)
    assert cs.shape == (6, 6, 3)  # the zero initial state, then each step's
    assert not cs[0].any()
    # the final h is the last step's o * tanh(c), bit for bit
    assert np.array_equal(gates[-1, :, 9:] * np.tanh(cs[-1]), h)


def test_lstm_training_buffer_holds_three_cache_arrays():
    # at B 16, T 16, D 32, H 128 (perfbench's roundtrip-hard): the inputs,
    # the gates and the 17 cell states, then the work region; one more
    # (T, B, H) array would add 262,144 bytes
    p = LSTMParams(32, 128)
    _, cache = lstm_forward(p, np.zeros((16, 16, 32)))
    assert len(cache) == 3
    assert cache[0].base.size == 190_464  # 1,523,712 bytes


def _forward_backward(p, xs, dh):
    """h, the BPTT cache's arrays before backward, and the gradients of one
    training step into zeroed gradients."""
    for q in p.params():
        q.zero_grad()
    h, cache = lstm_forward(p, xs)
    kept = [a.copy() for a in cache]
    lstm_backward(p, cache, dh)
    return [h] + kept + [q.grad.copy() for q in p.params()]


@pytest.mark.parametrize("before", [
    "larger-batch", "short-batch", "inference", "open-forward"])
def test_lstm_step_is_bit_identical_whatever_ran_before(before):
    rng = np.random.default_rng(7)
    p = LSTMParams(4, 3, rng=rng)
    xs, dh = rng.standard_normal((6, 5, 4)), rng.standard_normal((6, 3))
    want = _forward_backward(p, xs, dh)
    b = 3 if before == "short-batch" else 8
    xs0, dh0 = rng.standard_normal((b, 5, 4)), rng.standard_normal((b, 3))
    if before == "inference":
        lstm_forward(p, xs0, keep_caches=False)
    elif before == "open-forward":  # two forwards before either backward
        want0 = _forward_backward(p, xs0, dh0)[-3:]
        _, cache0 = lstm_forward(p, xs0)
    else:
        _forward_backward(p, xs0, dh0)
    got = _forward_backward(p, xs, dh)
    for a, w in zip(got, want, strict=True):
        assert a.shape == w.shape
        assert a.tobytes() == w.tobytes()  # bit for bit
    if before == "open-forward":
        for q in p.params():
            q.zero_grad()
        lstm_backward(p, cache0, dh0)
        for q, w in zip(p.params(), want0, strict=True):
            assert q.grad.tobytes() == w.tobytes()


def _carved_from(arrays, buffer):
    """Whether ``arrays`` are consecutive views from the front of ``buffer``."""
    start = buffer.__array_interface__["data"][0]
    for a in arrays:
        if a.base is not buffer or a.__array_interface__["data"][0] != start:
            return False
        start += a.nbytes
    return True


def _buffer_size(lead, T, B, D, H):
    """Elements of a training forward's flat buffer: the three-array BPTT
    cache (inputs, gates and T + 1 cell states), then the work region of
    six (B, H) rows or one gate's (H, max(D, H)) block of a weight
    gradient, whichever is larger."""
    M = math.prod(lead)
    return M * (T * B * (D + 4 * H) + (T + 1) * B * H
                + max(6 * B * H, H * max(D, H)))


def _backward_reference(params, cache, dh_last):
    """``lstm_backward`` as plain textbook code: each step's expressions
    into fresh temporaries, then one (4H, .) product per weight gradient,
    added to a copy of it. Returns the Wx, Wh and b gradients and leaves
    the cache and the parameters as they are."""
    xs, gates, cs = cache
    *lead, T, B, _ = gates.shape
    D, H = xs.shape[-1], params.hidden
    hs = np.zeros_like(cs[..., :T, :, :])  # each step's input hidden state
    dz = np.empty_like(gates)
    dh, dc = dh_last, np.zeros_like(dh_last)
    for t in reversed(range(T)):
        a, tc = gates[..., t, :, :], np.tanh(cs[..., t + 1, :, :])
        i, f, g, o = (a[..., :H], a[..., H:2 * H], a[..., 2 * H:3 * H],
                      a[..., 3 * H:])
        if t + 1 < T:
            hs[..., t + 1, :, :] = o * tc
        do = dh * tc
        dcell = dc + dh * o * (1.0 - tc * tc)
        di = dcell * g
        df = dcell * cs[..., t, :, :]
        dg = dcell * i
        dc = dcell * f
        dz[..., t, :, :] = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g),
             do * o * (1.0 - o)], axis=-1)
        dh = dz[..., t, :, :] @ params.Wh.values
    dz = dz.reshape(*lead, T * B, 4 * H)
    dzT = dz.swapaxes(-1, -2)
    return (params.Wx.grad + dzT @ xs.reshape(*lead, T * B, D),
            params.Wh.grad + dzT @ hs.reshape(*lead, T * B, H),
            params.b.grad + dz.sum(axis=-2))


def _lstm(rng, members, D, H):
    """A lone LSTM (``members`` None) or a stack of that many."""
    models = [LSTMParams(D, H, rng=rng) for _ in range(members or 1)]
    return models[0] if members is None else nn.stack_members(models)


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("T", [1, 5])
@pytest.mark.parametrize("M", [None, 1, 2])
def test_lstm_backward_matches_a_plain_loop_reference(M, T, B):
    rng = np.random.default_rng([M or 0, T, B])
    D, H = 5, 7  # at B 1, one gate's (H, H) block outgrows six (B, H) rows
    p = _lstm(rng, M, D, H)
    p.b.values += rng.standard_normal(p.b.shape) * 0.5
    lead = () if M is None else (M,)
    # a batch into zeroed gradients, then a shorter one added to them
    for b in (B + 2, B):
        xs = rng.standard_normal((*lead, b, T, D))
        dh = rng.standard_normal((*lead, b, H))
        _, cache = lstm_forward(p, xs)
        # the cache, then the work region, tile one buffer
        buffer = cache[0].base
        assert _carved_from(cache, buffer)
        assert buffer.size == _buffer_size(lead, T, b, D, H)
        want = _backward_reference(p, cache, dh)
        lstm_backward(p, cache, dh)
        for q, w in zip(p.params(), want, strict=True):
            assert q.grad.tobytes() == w.tobytes()  # bit for bit


@pytest.mark.parametrize("T", [1, 5])
def test_stacked_lstm_trains_on_a_batch_its_members_share(T):
    rng = np.random.default_rng(T)
    p = _lstm(rng, 2, 4, 3)
    xs, dh = rng.standard_normal((5, T, 4)), rng.standard_normal((2, 5, 3))
    # the same batch given to each member: what the shared one must give
    want = _forward_backward(p, np.broadcast_to(xs, (2, *xs.shape)).copy(),
                             dh)
    got = _forward_backward(p, xs, dh)
    for a, w in ((got[0], want[0]), *zip(got[-3:], want[-3:])):
        assert a.shape == w.shape
        assert a.tobytes() == w.tobytes()  # bit for bit


@pytest.mark.parametrize("M, B", [(None, 256), (2, 128)])
def test_lstm_steps_after_the_first_allocate_no_rows(M, B):
    # numpy's ufuncs over gate slices copy through iterator buffers of at
    # most 8,192 elements; at B * H = 32,768 per member each stays below a
    # quarter of one (..., B, H) row, so a temporary row would show
    rng = np.random.default_rng(6)
    T, D, H = 3, 128, 128
    p = _lstm(rng, M, D, H)
    lead = () if M is None else (M,)
    peaks = []
    tracemalloc.start()
    try:
        for b in (B, B - 5, B):  # a short batch, then a full one again
            xs = rng.standard_normal((*lead, b, T, D))
            dh = rng.standard_normal((*lead, b, H))
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            h, cache = lstm_forward(p, xs)
            buffer = cache[0].base
            forward = (tracemalloc.get_traced_memory()[1] - start - h.nbytes
                       - buffer.nbytes)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lstm_backward(p, cache, dh)
            backward = tracemalloc.get_traced_memory()[1] - start
            peaks.append((h.nbytes, buffer.size, _buffer_size(lead, T, b, D, H),
                          forward, backward))
    finally:
        tracemalloc.stop()
    row = 8 * math.prod(lead) * B * H
    # every forward allocates its output h and one buffer, for the cache
    # and the work region, and backward nothing, beyond the iterator
    # buffers: no row and no (4H, .) product
    for h_bytes, size, want, forward, backward in peaks:
        assert h_bytes <= row and size == want
        assert forward < row and backward < row


def assert_close_relative(actual, expected, rtol):
    scale = max(np.abs(expected).max(), np.finfo(np.float64).tiny)
    assert np.abs(actual - expected).max() <= rtol * scale


@pytest.mark.parametrize("B, T", [(1, 1), (3, 5), (16, 16)])
def test_lstm_matches_per_step_reference(B, T):
    rng = np.random.default_rng(100 * B + T)
    D, H = 5, 7
    p = LSTMParams(D, H, rng=rng)
    p.b.values += rng.standard_normal(4 * H) * 0.5
    xs = rng.standard_normal((B, T, D))
    dh_last = rng.standard_normal((B, H))

    state, steps = (np.zeros((B, H)), np.zeros((B, H))), []
    for t in range(T):
        state, step_cache = lstm_step(p, state, xs[:, t, :])
        steps.append(step_cache)
    dh, dc = dh_last, np.zeros((B, H))
    for t in reversed(range(T)):
        dh, dc = lstm_step_backward(p, steps[t], dh, dc)
    ref_grads = [q.grad.copy() for q in p.params()]
    for q in p.params():
        q.zero_grad()

    h, cache = lstm_forward(p, xs)
    assert np.array_equal(h, state[0])  # bit for bit
    assert lstm_backward(p, cache, dh_last) is None  # inputs are frozen
    for q, ref in zip(p.params(), ref_grads):
        assert_close_relative(q.grad, ref, 1e-12)


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
    # 0.5 * (1 + tanh(x / 2)) rounds to exactly 0 here; video.pool_weighted
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
