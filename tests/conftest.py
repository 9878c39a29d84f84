import base64

import numpy as np
import pytest

from smallclip.data import Clip, build_dataset
from smallclip.errors import ContractError
from smallclip.nn import ParamTensor, sigmoid, softmax


def make_clip(rng, clip_id, split="train", L=3, d_feature=4, n_classes=7,
              d_audio=None, label=0):
    """Random well-formed clip for structural tests."""
    audio = rng.standard_normal(d_audio) if d_audio else None
    return Clip(
        clip_id, split,
        rng.standard_normal((L, d_feature)),
        rng.random((L, n_classes)),
        rng.uniform(-1, 1, (L, 2)),
        audio=audio,
        label=label,
    )


def softmax_cross_entropy(logits, label):
    """Reference for ``softmax_cross_entropy_batch``: loss, d(loss)/d(logits)
    and probabilities for a single score vector."""
    probs = softmax(np.asarray(logits, dtype=np.float64))
    grad = probs.copy()
    grad[label] -= 1.0
    return float(-np.log(probs[label])), grad, probs


def lstm_step(params, state, x):
    """Per-step reference for ``nn.lstm_forward``: one cell update (sigmoid
    gates, tanh candidate); returns ((h', c'), cache)."""
    h, c = state
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    h2 = np.atleast_2d(np.asarray(h, dtype=np.float64))
    c2 = np.atleast_2d(np.asarray(c, dtype=np.float64))
    H = params.hidden
    z = x2 @ params.Wx.values.T + h2 @ params.Wh.values.T + params.b.values
    i = sigmoid(z[:, 0:H])
    f = sigmoid(z[:, H:2 * H])
    g = np.tanh(z[:, 2 * H:3 * H])
    o = sigmoid(z[:, 3 * H:4 * H])
    c_new = f * c2 + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    cache = (x2, h2, c2, i, f, g, o, tc)
    if single:
        return (h_new[0], c_new[0]), cache
    return (h_new, c_new), cache


def lstm_step_backward(params, cache, dh, dc):
    """Per-step reference for ``nn.lstm_backward``: backward through one
    cell step, accumulating that step's parameter gradients; returns
    (dh_prev, dc_prev)."""
    x2, h2, c2, i, f, g, o, tc = cache
    dh2 = np.atleast_2d(dh)
    dc2 = np.atleast_2d(dc)
    do = dh2 * tc
    dcell = dc2 + dh2 * o * (1.0 - tc * tc)
    di = dcell * g
    df = dcell * c2
    dg = dcell * i
    dc_prev = dcell * f
    dz = np.concatenate([
        di * i * (1.0 - i),
        df * f * (1.0 - f),
        dg * (1.0 - g * g),
        do * o * (1.0 - o),
    ], axis=1)
    params.Wx.grad += dz.T @ x2
    params.Wh.grad += dz.T @ h2
    params.b.grad += dz.sum(axis=0)
    dh_prev = dz @ params.Wh.values
    if np.ndim(dh) == 1:
        return dh_prev[0], dc_prev[0]
    return dh_prev, dc_prev


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def dataset_from_counts(counts_by_split, d_feature=4, n_classes=7, seed=0):
    """Dataset whose per-split class counts match the given mapping."""
    rng = np.random.default_rng(seed)
    clips = []
    for split, counts in counts_by_split.items():
        for k, count in enumerate(counts):
            for i in range(count):
                clips.append(make_clip(rng, f"{split}-{k}-{i}", split=split,
                                       d_feature=d_feature, n_classes=n_classes,
                                       label=k))
    return build_dataset(clips)


def grad_check(loss_fn, tensors, eps=1e-5):
    """Max relative error between analytic and central-difference gradients,
    at 64-bit precision.

    ``loss_fn(compute_grad)`` must return the scalar loss; when
    ``compute_grad`` is true it must also populate ``t.grad`` for every tensor
    in ``tensors``. It must be deterministic (fix any rng inside the closure).
    Inputs can be checked too: wrap them in a ParamTensor and have the closure
    route the backward pass's input gradient into its ``.grad``. Relative
    error per coordinate is |a - n| / max(|a|, |n|, 1e-8).
    """
    if eps <= 0:
        raise ContractError("eps must be > 0")
    tensors = list(tensors)
    for t in tensors:
        if not isinstance(t, ParamTensor):
            raise ContractError(f"grad_check needs ParamTensors, got {type(t)!r}")
        t.zero_grad()
    loss_fn(True)
    analytic = [t.grad.copy() for t in tensors]

    max_rel = 0.0
    for t, ana in zip(tensors, analytic):
        flat = t.values.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_fn(False)
            flat[i] = orig - eps
            lm = loss_fn(False)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            rel = abs(ana_flat[i] - numeric) / max(abs(ana_flat[i]), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel


# -- checkpoint versions ---------------------------------------------------------

# the integer arrays of a checkpoint (a forest tree's); every other is float64
CHECKPOINT_INT_ARRAYS = ("feature", "left", "right", "hist")


def version1_record(a):
    """The version-1 checkpoint record of array ``a``: its shape and a flat
    list of JSON numbers. The reference writer of version 1."""
    a = np.asarray(a)
    return {"shape": list(a.shape), "data": a.ravel().tolist()}


def version2_record(a, dtype):
    """The version-2 checkpoint record of array ``a``: its shape and the
    base64 of its values as little-endian ``dtype`` bytes."""
    a = np.asarray(a, dtype=np.dtype(dtype).newbyteorder("<"))
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def checkpoint_as_version(obj, version):
    """Checkpoint dict ``obj``, of either version, rewritten in ``version``.

    Each record keeps its shape and its values in order, so an edit made to
    a version-1 record (one that keeps ``data`` as long as ``shape`` asks)
    survives the trip to version 2.
    """
    def convert(node, key=None):
        if isinstance(node, dict) and set(node) == {"shape", "data"}:
            dtype = np.int64 if key in CHECKPOINT_INT_ARRAYS else np.float64
            data = node["data"]
            values = (np.array(data, dtype=dtype) if isinstance(data, list)
                      else np.frombuffer(base64.b64decode(data),
                                         np.dtype(dtype).newbyteorder("<")))
            values = values.reshape(node["shape"])
            return (version1_record(values) if version == 1
                    else version2_record(values, dtype))
        if isinstance(node, dict):
            return {k: convert(v, k) for k, v in node.items()}
        if isinstance(node, list):
            return [convert(v, key) for v in node]
        return node
    return dict(convert(obj), version=version)
