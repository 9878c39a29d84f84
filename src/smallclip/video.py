"""Video side: frame selection and the four temporal pooling heads.

Every clip is first reduced to a fixed number of frames (``n``, default 16)
by splitting it into n equal chunks and keeping the frame with the highest
per-frame score in each chunk. The heads then differ in how they turn the
selected frame features into class scores:

* ``score-mean``       mean of the stored per-frame score vectors, no training
* ``avg-pool``         mean-pool features, linear classifier
* ``weighted-avg-pool`` weights from a sigmoid over arousal-valence, learned
                        jointly with the classifier
* ``lstm``             recurrent readout of the selected frame sequence
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig, VIDEO_HEADS
from .data import Clip, Dataset
from .errors import ContractError, TrainingError
from .nn import (LSTMParams, Linear, lstm_backward, lstm_forward, sigmoid,
                 softmax, softmax_cross_entropy_batch, stack_members)
from .optim import train_minibatches


@dataclass
class SelectedClip:
    """Fixed-length view of a clip: features, arousal-valence, source rows."""

    features: np.ndarray   # (n, D)
    av: np.ndarray         # (n, 2)
    indices: np.ndarray    # (n,) rows of the original clip, ascending


def select_frames(clip: Clip, n: int = 16) -> SelectedClip:
    """Keep the highest-scoring frame of each of ``n`` equal chunks.

    Chunk i covers frame indices [floor(i*L/n), floor((i+1)*L/n)). Score ties
    go to the earliest frame. When L < n some chunks are empty; those reuse
    the frame at min(floor(i*L/n), L-1), so short clips repeat frames rather
    than fail.
    """
    if n < 1:
        raise ContractError(f"frame count n must be >= 1, got {n}")
    L = clip.n_frames
    per_frame = clip.scores.max(axis=1)
    indices = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo = (i * L) // n
        hi = ((i + 1) * L) // n
        if lo < hi:
            indices[i] = lo + np.argmax(per_frame[lo:hi])
        else:
            indices[i] = min(lo, L - 1)
    return SelectedClip(clip.features[indices], clip.av[indices], indices)


def selected_frames(clip: Clip, n: int) -> SelectedClip:
    """``select_frames(clip, n)``, computed once per clip and ``n``.

    The selection is memoized on the clip, so every member, epoch and batch
    that scores the clip shares it; the result is deterministic.
    """
    sel = clip.selected.get(n)
    if sel is None:
        sel = clip.selected[n] = select_frames(clip, n)
    return sel


def _stack_selected(clips, n: int):
    """(F, AV) of shapes (N, n, D) and (N, n, 2) for a list of clips."""
    sel = [selected_frames(c, n) for c in clips]
    return np.stack([s.features for s in sel]), np.stack([s.av for s in sel])


def predict_score_mean(clip: Clip, score_mode: str = "probs") -> np.ndarray:
    """Classify from the stored frame scores alone (no trained parameters).

    ``probs`` mode averages the per-frame vectors and renormalizes, which
    requires them to be nonnegative with positive sum; ``logits`` mode
    averages then applies softmax.
    """
    mean = clip.scores.mean(axis=0)
    if score_mode == "logits":
        return softmax(mean)
    if score_mode != "probs":
        raise ContractError(f"score_mode must be 'probs' or 'logits', "
                            f"got {score_mode!r}")
    if np.any(mean < 0) or mean.sum() <= 0:
        raise ContractError(
            f"clip {clip.id}: stored scores are not probability-like; "
            f"use score_mode='logits'")
    return mean / mean.sum()


def pool_average(F) -> np.ndarray:
    """Unweighted mean of each clip's selected frame features.

    ``F`` is (..., B, n, D), one row of frames per clip; returns (..., B, D),
    a view for one-frame clips.
    """
    return F[..., 0, :] if F.shape[-2] == 1 else F.mean(axis=-2)


def pool_weighted(F, AV, regressor: Linear):
    """Weighted mean of each clip's frames, weights sigmoid(av @ a + b).

    ``F`` is (..., B, n, D) and ``AV`` (..., B, n, 2); returns ``(pooled,
    w)`` of shapes (..., B, D) and (..., B, n). A stacked regressor takes
    them per member or shared. Weights are strictly positive (sigmoid), and
    each pooled row is the weight-normalized average of its clip's frames,
    so a zero regressor (all weights 0.5) reduces to the plain average.
    """
    W, b = regressor.W.values, regressor.b.values
    z = AV.reshape(*AV.shape[:-3], -1, 2) @ W.swapaxes(-1, -2)
    z += b[..., None, :]
    w = sigmoid(z.reshape(*z.shape[:-2], *AV.shape[-3:-1]))
    pooled = np.einsum("...bn,...bnd->...bd", w, F)
    pooled /= w.sum(axis=-1)[..., None]
    return pooled, w


def _check_feature_dim(clips, d_feature):
    for clip in clips:
        if clip.features.shape[1] != d_feature:
            raise ContractError(
                f"clip {clip.id}: feature dim {clip.features.shape[1]} "
                f"does not match model dim {d_feature}")


class VideoModel:
    """A trained (or trainable) temporal pooling head.

    Parameters live in ``ParamTensor`` objects reachable via ``params()``;
    a model made by ``nn.stack_members`` holds M members' on a leading axis.
    Training and inference share one batched forward pass; ``predict_batch``
    is the one-model case of the only inference path, ``predict_stacked``,
    and ``predict`` is its one-row case.
    """

    def __init__(self, kind: str, n: int, d_feature: int, n_classes: int,
                 score_mode: str = "probs", lstm_hidden: int = 128, rng=None):
        if kind not in VIDEO_HEADS:
            raise ContractError(f"unknown head kind {kind!r}")
        self.kind = kind
        self.n = n
        self.d_feature = d_feature
        self.n_classes = n_classes
        self.score_mode = score_mode
        self.lstm_hidden = lstm_hidden
        self.classifier = None
        self.regressor = None
        self.lstm = None
        if kind == "avg-pool":
            self.classifier = Linear(d_feature, n_classes, rng, "classifier")
        elif kind == "weighted-avg-pool":
            self.classifier = Linear(d_feature, n_classes, rng, "classifier")
            self.regressor = Linear(2, 1, rng, "regressor")
        elif kind == "lstm":
            self.lstm = LSTMParams(d_feature, lstm_hidden, rng, "lstm")
            self.classifier = Linear(lstm_hidden, n_classes, rng, "classifier")

    def params(self):
        out = []
        if self.lstm is not None:
            out.extend(self.lstm.params())
        if self.classifier is not None:
            out.extend(self.classifier.params())
        if self.regressor is not None:
            out.extend(self.regressor.params())
        return out

    # -- batched forward and backward -----------------------------------

    def forward_batch(self, F, AV, keep_cache=True, spent=None):
        """Logits for a batch of selected clips; returns (logits, cache).

        ``F`` is (..., B, n, D) and ``AV`` (..., B, n, 2); a stacked model
        takes them per member (M, B, ...) or shared by all members (B, ...)
        and returns (M, B, C) logits. ``keep_cache=False`` is for
        inference: the LSTM then keeps no BPTT caches, so the returned cache
        cannot be passed to ``backward_batch``. ``spent`` may be an earlier
        cache that ``backward_batch`` has consumed; the LSTM writes its new
        BPTT cache into it (``lstm_forward``'s ``cache``).
        """
        if self.kind == "avg-pool":
            logits, lcache = self.classifier.forward(pool_average(F))
            return logits, (lcache, F.shape[-2])
        if self.kind == "weighted-avg-pool":
            pooled, w = pool_weighted(F, AV, self.regressor)
            logits, lcache = self.classifier.forward(pooled)
            return logits, (lcache, F, AV, w, pooled)
        if self.kind == "lstm":
            h, lstm_cache = lstm_forward(
                self.lstm, F, keep_caches=keep_cache,
                cache=None if spent is None else spent[1])
            logits, lcache = self.classifier.forward(h)
            return logits, (lcache, lstm_cache, F.shape)
        raise ContractError(f"head {self.kind!r} has no trainable forward")

    def backward_batch(self, cache, dlogits):
        if self.kind == "avg-pool":
            lcache, n = cache
            dpooled = self.classifier.backward(lcache, dlogits)
            return np.repeat(dpooled[..., None, :] / n, n, axis=-2)
        if self.kind == "weighted-avg-pool":
            lcache, F, AV, w, pooled = cache
            s = w.sum(axis=-1)
            dpooled = self.classifier.backward(lcache, dlogits)
            # quotient rule through pooled = sum_i w_i f_i / sum_i w_i
            dw = np.einsum("...bnd,...bd->...bn", F - pooled[..., None, :],
                           dpooled)
            dw /= s[..., None]
            dz = dw * w * (1.0 - w)
            lead = dz.shape[:-2]
            self.regressor.W.grad += (dz.reshape(*lead, 1, -1)
                                      @ AV.reshape(*lead, -1, 2))
            self.regressor.b.grad += dz.reshape(*lead, -1).sum(
                axis=-1, keepdims=True)
            return w[..., None] * dpooled[..., None, :] / s[..., None, None]
        if self.kind == "lstm":
            lcache, lstm_cache, shape = cache
            dh = self.classifier.backward(lcache, dlogits)
            return lstm_backward(self.lstm, lstm_cache, dh)
        raise ContractError(f"head {self.kind!r} has no trainable backward")

    # -- inference -------------------------------------------------------

    def predict_batch(self, clips) -> np.ndarray:
        """Class probabilities (N, C), one row per clip, in order: the
        one-model case of ``predict_stacked``."""
        return predict_stacked([self], clips)[0]

    def predict(self, clip: Clip) -> np.ndarray:
        return self.predict_batch([clip])[0]


def _split_accuracy(model: VideoModel, clips) -> float | None:
    labeled = [c for c in clips if c.label is not None]
    if not labeled:
        return None
    pred = model.predict_batch(labeled).argmax(axis=1)
    hits = int(np.sum(pred == [c.label for c in labeled]))
    return hits / len(labeled)


def train_video_model(ds: Dataset, config: TrainConfig, seed: int):
    """Fit the configured head on the train split; returns (model, log).

    The one-seed call of :func:`train_video_models`.
    """
    return train_video_models(ds, config, [seed])[0]


def train_video_models(ds: Dataset, config: TrainConfig, seeds):
    """Fit one head per seed on the train split; returns [(model, log), ...].

    A log is one dict per epoch with the mean train loss and the val-split
    accuracy (None when the val split is empty). Member m's rng
    ``default_rng([seeds[m], 0x71D])`` draws its init and its epoch
    permutations. Frames are selected once per clip, the train and labeled
    val clips are stacked once per call, and the members train in lockstep
    as one stacked model (``nn.stack_members``) in
    ``optim.train_minibatches``, so each member's parameters and log are
    bit for bit those it gets when trained alone. A non-finite loss or
    gradient raises a TrainingError naming the epoch and the first failing
    member's seed.
    """
    config.validate()
    seeds = list(seeds)
    if not seeds:
        return []
    train_clips = [c for c in ds.split("train") if c.label is not None]
    if not train_clips:
        raise TrainingError("train split has no labeled clips")
    val_clips = ds.split("val")
    rngs = [np.random.default_rng([seed, 0x71D]) for seed in seeds]
    models = [VideoModel(config.head, config.n, ds.d_feature, ds.n_classes,
                         score_mode=config.score_mode,
                         lstm_hidden=config.lstm_hidden, rng=rng)
              for rng in rngs]
    if config.head == "score-mean":
        return [(model, [{"epoch": 0, "train_loss": None,
                          "val_accuracy": _split_accuracy(model, val_clips)}])
                for model in models]

    def inputs(clips):
        F, AV = _stack_selected(clips, config.n)
        if config.head == "avg-pool":  # pool once, not every step
            return pool_average(F)[:, None, :], AV[:, :1]
        return F, AV

    F, AV = inputs(train_clips)
    y = np.array([c.label for c in train_clips], dtype=np.int64)
    stack = stack_members(models)
    spent = {}  # per batch shape, the cache its last backward consumed

    def step(batch):
        logits, cache = stack.forward_batch(F[batch], AV[batch],
                                            spent=spent.get(batch.shape))
        loss, dlogits, _ = softmax_cross_entropy_batch(logits, y[batch])
        stack.backward_batch(cache, dlogits)
        spent[batch.shape] = cache
        return loss

    val = None
    val_labeled = [c for c in val_clips if c.label is not None]
    if val_labeled:
        F_val, AV_val = inputs(val_labeled)
        val = (lambda: stack.forward_batch(F_val, AV_val, keep_cache=False)[0],
               np.array([c.label for c in val_labeled], dtype=np.int64))
    logs = train_minibatches(stack.params(), step, rngs, seeds, len(y),
                             config.epochs, config.lr, config, val)
    return list(zip(models, logs))


def predict_stacked(models, clips) -> np.ndarray:
    """Class probabilities (M, N, C) of M models sharing kind, ``n`` and
    feature dim, one row per clip: one forward of the models' stack
    (``nn.stack_members``) over frames selected once per clip. Member m's
    rows are bit for bit those it scores alone. The untrained score-mean
    head reads the stored frame scores instead.
    """
    first = models[0]
    _check_feature_dim(clips, first.d_feature)
    if not clips:
        return np.empty((len(models), 0, first.n_classes))
    if first.kind == "score-mean":
        return np.stack([np.stack([predict_score_mean(c, m.score_mode)
                                   for c in clips]) for m in models])
    logits, _ = stack_members(models).forward_batch(
        *_stack_selected(clips, first.n), keep_cache=False)
    return softmax(logits, axis=-1)
