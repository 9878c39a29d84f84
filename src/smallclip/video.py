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

import numpy as np

from .config import SCORE_MODES, TrainConfig, VIDEO_HEADS
from .data import Clip, Dataset, quoted
from .errors import ContractError, TrainingError
from .nn import (LSTMParams, Linear, lstm_backward, lstm_forward, sigmoid,
                 softmax, softmax_cross_entropy_batch, stack_members)
from .optim import train_minibatches


def select_frames(clips, n: int = 16):
    """Keep the highest-scoring frame of each of ``n`` equal chunks, per clip.

    Returns ``(F, AV, indices)`` of shapes (N, n, D), (N, n, 2) and (N, n)
    for a nonempty list of N clips of one feature dim: the chosen frames'
    features and arousal-valence, and their rows within each clip. A
    frame's score is its max class score. Chunk i of an L-frame clip covers
    rows [floor(i*L/n), floor((i+1)*L/n)), and score ties go to the earliest
    row. When L < n some chunks are empty; those keep row floor(i*L/n), so
    short clips repeat frames rather than fail. One call selects for the
    whole batch, in memory linear in its total frame count.
    """
    if n < 1:
        raise ContractError(f"frame count n must be >= 1, got {n}")
    lengths = np.array([c.n_frames for c in clips], dtype=np.int64)
    offsets = (np.cumsum(lengths) - lengths)[:, None]
    bounds = np.arange(n + 1) * lengths[:, None] // n
    nonempty = bounds[:, :-1] < bounds[:, 1:]
    # rows of the clips' concatenated frames; the nonempty chunks tile them,
    # so a reduceat over their starts reduces each chunk on its own
    rows = bounds[:, :-1] + offsets
    starts = rows[nonempty]
    per_frame = np.concatenate([c.scores.max(axis=1) for c in clips])
    total = len(per_frame)
    best = np.repeat(np.maximum.reduceat(per_frame, starts),
                     np.diff(starts, append=total))
    rows[nonempty] = np.minimum.reduceat(
        np.where(per_frame == best, np.arange(total), total), starts)
    indices = rows - offsets
    return (np.stack([c.features[i] for c, i in zip(clips, indices)]),
            np.stack([c.av[i] for c, i in zip(clips, indices)]), indices)


def score_mean(clips, score_mode: str = "probs") -> np.ndarray:
    """Class probabilities (N, C) from the stored frame scores alone, one
    row per clip of a nonempty list: each clip's mean per-frame score,
    renormalized (``probs``: a ContractError names the first clip whose
    mean has a negative entry or a sum <= 0) or softmaxed (``logits``).
    """
    if score_mode not in SCORE_MODES:
        raise ContractError(f"score_mode must be 'probs' or 'logits', "
                            f"got {score_mode!r}")
    mean = np.stack([c.scores.mean(axis=0) for c in clips])
    if score_mode == "logits":
        return softmax(mean, axis=-1)
    total = mean.sum(axis=-1, keepdims=True)
    bad = np.any(mean < 0, axis=-1) | (total[:, 0] <= 0)
    if bad.any():
        raise ContractError(
            f"clip {quoted(clips[int(np.argmax(bad))].id, spell=str)}: "
            f"stored scores are not probability-like; use "
            f"score_mode='logits'")
    return mean / total


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
                f"clip {quoted(clip.id, spell=str)}: feature dim "
                f"{clip.features.shape[1]} does not match model dim "
                f"{d_feature}")


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

    def forward_batch(self, F, AV, keep_cache=True):
        """Logits for a batch of selected clips; returns (logits, cache).

        ``F`` is (..., B, n, D) and ``AV`` (..., B, n, 2); a stacked model
        takes them per member (M, B, ...) or shared by all members (B, ...)
        and returns (M, B, C) logits. The cache serves the parameters'
        gradients only: ``F`` is frozen. ``keep_cache=False`` is for
        inference: the LSTM then keeps no BPTT caches, so the returned cache
        cannot be passed to ``backward_batch``.
        """
        if self.kind == "avg-pool":
            return self.classifier.forward(pool_average(F))
        if self.kind == "weighted-avg-pool":
            pooled, w = pool_weighted(F, AV, self.regressor)
            logits, lcache = self.classifier.forward(pooled)
            return logits, (lcache, F, AV, w, pooled)
        if self.kind == "lstm":
            h, lstm_cache = lstm_forward(self.lstm, F, keep_caches=keep_cache)
            logits, lcache = self.classifier.forward(h)
            return logits, (lcache, lstm_cache)
        raise ContractError(f"head {self.kind!r} has no trainable forward")

    def backward_batch(self, cache, dlogits):
        """Accumulate the head's parameter gradients from ``dlogits``;
        returns nothing. The frame features come from a pretrained network
        and stay frozen, so no gradient on ``F`` is formed."""
        if self.kind == "avg-pool":
            self.classifier.backward(cache, dlogits)
        elif self.kind == "weighted-avg-pool":
            lcache, F, AV, w, pooled = cache
            self.classifier.backward(lcache, dlogits)
            dpooled = dlogits @ self.classifier.W.values
            # quotient rule through pooled = sum_i w_i f_i / sum_i w_i; one
            # (M, B, n, D) temporary per step
            dw = np.einsum("...bnd,...bd->...bn", F - pooled[..., None, :],
                           dpooled)
            dw /= w.sum(axis=-1)[..., None]
            dz = dw * w * (1.0 - w)
            lead = dz.shape[:-2]
            self.regressor.W.grad += (dz.reshape(*lead, 1, -1)
                                      @ AV.reshape(*lead, -1, 2))
            self.regressor.b.grad += dz.reshape(*lead, -1).sum(
                axis=-1, keepdims=True)
        elif self.kind == "lstm":
            lcache, lstm_cache = cache
            self.classifier.backward(lcache, dlogits)
            lstm_backward(self.lstm, lstm_cache,
                          dlogits @ self.classifier.W.values)

    # -- inference -------------------------------------------------------

    def predict_batch(self, clips) -> np.ndarray:
        """Class probabilities (N, C), one row per clip, in order: the
        one-model case of ``predict_stacked``."""
        return predict_stacked([self], clips)[0]

    def predict(self, clip: Clip) -> np.ndarray:
        return self.predict_batch([clip])[0]


def train_video_model(ds: Dataset, config: TrainConfig, seed: int):
    """Fit the configured head on the train split; returns (model, log).

    The one-seed call of :func:`train_video_models`.
    """
    return train_video_models(ds, config, [seed])[0]


def train_video_models(ds: Dataset, config: TrainConfig, seeds):
    """Fit one head per seed on the train split; returns [(model, log), ...].

    A log is one dict per epoch with its mean train loss; score-mean
    members need no training and log epoch 0 with no loss. No split is
    scored here: accuracies come from ``predict_batch``. Member m's rng
    ``default_rng([seeds[m], 0x71D])`` draws its init and its epoch
    permutations. The labeled train clips are one ``select_frames`` batch
    per call, and the members train in lockstep as one stacked model
    (``nn.stack_members``) in ``optim.train_minibatches``, so each member's
    parameters and log are bit for bit those it gets when trained alone. A
    non-finite loss or gradient raises a TrainingError naming the epoch and
    the first failing member's seed.
    """
    config.validate()
    seeds = list(seeds)
    if not seeds:
        return []
    train_clips = ds.labeled("train")
    if not train_clips:
        raise TrainingError("train split has no labeled clips")
    rngs = [np.random.default_rng([seed, 0x71D]) for seed in seeds]
    models = [VideoModel(config.head, config.n, ds.d_feature, ds.n_classes,
                         score_mode=config.score_mode,
                         lstm_hidden=config.lstm_hidden, rng=rng)
              for rng in rngs]
    if config.head == "score-mean":
        return [(model, [{"epoch": 0, "train_loss": None}])
                for model in models]
    F, AV, _ = select_frames(train_clips, config.n)
    if config.head == "avg-pool":  # pool once, not every step
        F, AV = pool_average(F)[:, None, :], AV[:, :1]
    y = np.array([c.label for c in train_clips], dtype=np.int64)
    stack = stack_members(models)

    def step(batch):
        logits, cache = stack.forward_batch(F[batch], AV[batch])
        loss, dlogits, _ = softmax_cross_entropy_batch(logits, y[batch])
        stack.backward_batch(cache, dlogits)
        return loss

    logs = train_minibatches(stack.params(), step, rngs, seeds, len(y),
                             config.epochs, config.lr, config)
    return list(zip(models, logs))


def predict_stacked(models, clips) -> np.ndarray:
    """Class probabilities (M, N, C) of M models of one config (so one
    kind, ``n``, ``score_mode`` and feature dim), one row per clip: one
    forward of the models' stack (``nn.stack_members``) over one
    ``select_frames`` batch, or one ``score_mean`` pass for score-mean
    members. Member m's rows are bit for bit those it scores alone.
    """
    first = models[0]
    _check_feature_dim(clips, first.d_feature)
    if not clips:
        return np.empty((len(models), 0, first.n_classes))
    if first.kind == "score-mean":
        return np.repeat(score_mean(clips, first.score_mode)[None],
                         len(models), axis=0)
    F, AV, _ = select_frames(clips, first.n)
    logits, _ = stack_members(models).forward_batch(F, AV, keep_cache=False)
    return softmax(logits, axis=-1)
