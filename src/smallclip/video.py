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
from .data import Clip, Dataset, FrameRecord, argmax_lowest
from .errors import ContractError, TrainingError
from .nn import (LSTMParams, Linear, ParamTensor, lstm_backward,
                 lstm_forward, sigmoid, softmax, softmax_cross_entropy_batch)
from .optim import make_optimizer


def frame_score(frame: FrameRecord) -> float:
    """Confidence of a frame: the maximum entry of its score vector."""
    return float(np.max(frame.scores))


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
            indices[i] = lo + argmax_lowest(per_frame[lo:hi])
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


def pool_average(selected: SelectedClip) -> np.ndarray:
    """Unweighted mean of the selected frame features."""
    return selected.features.mean(axis=0)


def pool_weighted(selected: SelectedClip, regressor: Linear):
    """Weighted mean with weights sigmoid(av @ a + b) from the regressor.

    Returns ``(pooled, weights)``. Weights are strictly positive (sigmoid),
    and the pooled vector is the weight-normalized average, so a zero
    regressor (all weights 0.5) reduces to the plain average.
    """
    z = (selected.av @ regressor.W.values[0])
    if regressor.b is not None:
        z = z + regressor.b.values[0]
    w = sigmoid(z)
    pooled = (w @ selected.features) / w.sum()
    return pooled, w


def _check_feature_dim(clips, d_feature):
    for clip in clips:
        if clip.features.shape[1] != d_feature:
            raise ContractError(
                f"clip {clip.id}: feature dim {clip.features.shape[1]} "
                f"does not match model dim {d_feature}")


class VideoModel:
    """A trained (or trainable) temporal pooling head.

    Parameters live in ``ParamTensor`` objects reachable via ``params()``.
    Training and inference share one batched forward pass; ``predict_batch``
    is the only inference path and ``predict`` is its one-row case.
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

        ``keep_cache=False`` is for inference: the LSTM then keeps no BPTT
        caches, so the returned cache cannot be passed to ``backward_batch``.
        """
        if self.kind == "avg-pool":
            pooled = F.mean(axis=1)
            logits, lcache = self.classifier.forward(pooled)
            return logits, (lcache, F.shape[1])
        if self.kind == "weighted-avg-pool":
            z = AV.reshape(-1, 2) @ self.regressor.W.values.T \
                + self.regressor.b.values
            w = sigmoid(z.reshape(F.shape[0], F.shape[1]))
            s = w.sum(axis=1)
            pooled = np.einsum("bn,bnd->bd", w, F) / s[:, None]
            logits, lcache = self.classifier.forward(pooled)
            return logits, (lcache, F, AV, w, s, pooled)
        if self.kind == "lstm":
            h, caches = lstm_forward(self.lstm, F, keep_caches=keep_cache)
            logits, lcache = self.classifier.forward(h)
            return logits, (lcache, caches, F.shape)
        raise ContractError(f"head {self.kind!r} has no trainable forward")

    def backward_batch(self, cache, dlogits):
        if self.kind == "avg-pool":
            lcache, n = cache
            dpooled = self.classifier.backward(lcache, dlogits)
            return np.repeat(dpooled[:, None, :], n, axis=1) / n
        if self.kind == "weighted-avg-pool":
            lcache, F, AV, w, s, pooled = cache
            dpooled = self.classifier.backward(lcache, dlogits)
            # quotient rule through pooled = sum_i w_i f_i / sum_i w_i
            dw = np.einsum("bnd,bd->bn", F - pooled[:, None, :], dpooled)
            dw /= s[:, None]
            dz = dw * w * (1.0 - w)
            self.regressor.W.grad += dz.reshape(1, -1) @ AV.reshape(-1, 2)
            self.regressor.b.grad += dz.sum()
            return w[:, :, None] * dpooled[:, None, :] / s[:, None, None]
        if self.kind == "lstm":
            lcache, caches, shape = cache
            dh = self.classifier.backward(lcache, dlogits)
            return lstm_backward(self.lstm, caches, dh)
        raise ContractError(f"head {self.kind!r} has no trainable backward")

    # -- inference -------------------------------------------------------

    def predict_batch(self, clips) -> np.ndarray:
        """Class probabilities (N, C), one row per clip, in order.

        Frames are selected once per clip (``selected_frames``); the trained
        heads then run ``forward_batch`` over the whole batch.
        """
        _check_feature_dim(clips, self.d_feature)
        if not clips:
            return np.empty((0, self.n_classes))
        if self.kind == "score-mean":
            return np.stack([predict_score_mean(c, self.score_mode)
                             for c in clips])
        logits, _ = self.forward_batch(*_stack_selected(clips, self.n),
                                       keep_cache=False)
        return softmax(logits, axis=1)

    def predict(self, clip: Clip) -> np.ndarray:
        return self.predict_batch([clip])[0]


def predict_video(model: VideoModel, clip: Clip) -> np.ndarray:
    """Class probabilities for one clip under a trained head."""
    return model.predict(clip)


def _split_accuracy(model: VideoModel, clips) -> float | None:
    labeled = [c for c in clips if c.label is not None]
    if not labeled:
        return None
    pred = model.predict_batch(labeled).argmax(axis=1)
    hits = int(np.sum(pred == [c.label for c in labeled]))
    return hits / len(labeled)


def _batch_accuracy(model: VideoModel, batch) -> float | None:
    """Accuracy on a pre-stacked ``(F, AV, labels)`` batch, as
    ``_split_accuracy`` computes it (softmax, then argmax); None if empty."""
    if batch is None:
        return None
    F, AV, labels = batch
    logits, _ = model.forward_batch(F, AV, keep_cache=False)
    pred = softmax(logits, axis=1).argmax(axis=1)
    return int(np.sum(pred == labels)) / len(labels)


def _stacked_logits(x, W, b):
    """``x @ W[m].T + b[m]`` for every stacked member m, as (M, B, C).

    ``x`` is (M, B, D), one batch per member, or (B, D), shared by all. Each
    member's slice is the matmul and add that ``Linear.forward`` runs for
    that member alone, so it is the same bit for bit.
    """
    y = x @ W.transpose(0, 2, 1)
    y += b[:, None, :]
    return y


def stacked_avg_pool_loss(x, labels, W: ParamTensor, b: ParamTensor):
    """Per-member mean cross-entropy of M stacked avg-pool classifiers.

    ``x`` is (M, B, D) pooled features, ``labels`` (M, B), ``W`` (M, C, D)
    and ``b`` (M, C). Accumulates each member's gradient into ``W.grad`` and
    ``b.grad`` and returns the (M,) losses.
    """
    loss, g, _ = softmax_cross_entropy_batch(
        _stacked_logits(x, W.values, b.values), labels)
    W.grad += g.transpose(0, 2, 1) @ x
    b.grad += g.sum(axis=1)
    return loss


def _check_stack_finite(epoch, seeds, loss, params):
    """TrainingError naming ``epoch`` and the seed of the first member
    whose loss or gradient is not finite; nothing if all are finite."""
    bad_loss = ~np.isfinite(loss)
    bad = bad_loss.copy()
    for p in params:
        bad |= ~np.isfinite(p.grad).reshape(len(seeds), -1).all(axis=1)
    if bad.any():
        m = int(np.argmax(bad))
        what = "loss" if bad_loss[m] else "gradient"
        raise TrainingError(f"non-finite {what} at epoch {epoch} in the "
                            f"member with seed {seeds[m]}; try a lower lr")


def _train_avg_pool_stack(models, rngs, seeds, P, y, val_batch, config):
    """Train avg-pool members in lockstep, stacked on a leading axis.

    Avg-pool's pooling has no parameters, so ``P``, the train clips' mean
    frame features computed once, feeds every step. Each member draws its
    epoch permutation from its own ``rng`` and gathers its own batch rows;
    every matmul, softmax and reduction runs per member slice, and the
    optimizers are elementwise, so each member's parameters and log are
    bit for bit those it gets when trained alone. Returns one log per member.
    """
    W = ParamTensor("classifier.W",
                    np.stack([m.classifier.W.values for m in models]))
    b = ParamTensor("classifier.b",
                    np.stack([m.classifier.b.values for m in models]))
    opt = make_optimizer([W, b], config.optimizer, lr=config.lr,
                         momentum=config.momentum)
    if val_batch is not None:
        P_val, y_val = val_batch[0].mean(axis=1), val_batch[2]
    n_train = len(y)
    logs = [[] for _ in models]
    for epoch in range(config.epochs):
        perms = np.stack([rng.permutation(n_train) for rng in rngs])
        total = np.zeros(len(models))
        for start in range(0, n_train, config.batch_size):
            batch = perms[:, start:start + config.batch_size]
            loss = stacked_avg_pool_loss(P[batch], y[batch], W, b)
            _check_stack_finite(epoch, seeds, loss, (W, b))
            opt.step()
            total += loss * batch.shape[1]
        accs = [None] * len(models)
        if val_batch is not None:
            pred = softmax(_stacked_logits(P_val, W.values, b.values),
                           axis=-1).argmax(axis=-1)
            accs = [int(h) / len(y_val) for h in (pred == y_val).sum(axis=1)]
        for log, t, acc in zip(logs, total, accs):
            log.append({"epoch": epoch, "train_loss": float(t) / n_train,
                        "val_accuracy": acc})
    for model, W_m, b_m in zip(models, W.values, b.values):
        model.classifier.W.values = W_m.copy()
        model.classifier.b.values = b_m.copy()
    return logs


def _train_one(model, rng, seed, F, AV, y, val_batch, config):
    """Train one head of any trainable kind over the stacked train clips;
    returns its per-epoch log."""
    opt = make_optimizer(model.params(), config.optimizer, lr=config.lr,
                         momentum=config.momentum)
    n_train = len(y)
    log = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n_train)
        total = 0.0
        for start in range(0, n_train, config.batch_size):
            batch = perm[start:start + config.batch_size]
            logits, cache = model.forward_batch(F[batch], AV[batch])
            loss, dlogits, _ = softmax_cross_entropy_batch(logits, y[batch])
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} in the member with "
                    f"seed {seed}; try a lower lr")
            model.backward_batch(cache, dlogits)
            opt.step()
            total += loss * batch.size
        log.append({"epoch": epoch, "train_loss": total / n_train,
                    "val_accuracy": _batch_accuracy(model, val_batch)})
    return log


def train_video_model(ds: Dataset, config: TrainConfig, seed: int):
    """Fit the configured head on the train split; returns (model, log).

    The one-seed call of :func:`train_video_models`.
    """
    return train_video_models(ds, config, [seed])[0]


def train_video_models(ds: Dataset, config: TrainConfig, seeds):
    """Fit one head per seed on the train split; returns [(model, log), ...].

    A log is one dict per epoch with the mean train loss and the val-split
    accuracy (None when the val split is empty). Each member is
    deterministic in (dataset, config, seed) and does not depend on the
    other seeds: its rng ``default_rng([seed, 0x71D])`` draws its init and
    its epoch permutations. Frames are selected once per clip and shared
    with every other model trained or scored on the same clips; the train
    and labeled val clips are stacked once per call, and only head
    parameters are trained. Avg-pool members train in lockstep as one
    stacked model (``_train_avg_pool_stack``); the other heads train one
    after another. A non-finite loss (or, for avg-pool, gradient) raises a
    TrainingError naming the epoch and the first failing member's seed.
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

    F, AV = _stack_selected(train_clips, config.n)
    y = np.array([c.label for c in train_clips], dtype=np.int64)
    val_labeled = [c for c in val_clips if c.label is not None]
    val_batch = None
    if val_labeled:
        val_batch = (*_stack_selected(val_labeled, config.n),
                     np.array([c.label for c in val_labeled], dtype=np.int64))

    if config.head == "avg-pool":
        logs = _train_avg_pool_stack(models, rngs, seeds, F.mean(axis=1), y,
                                     val_batch, config)
    else:
        logs = [_train_one(model, rng, seed, F, AV, y, val_batch, config)
                for model, rng, seed in zip(models, rngs, seeds)]
    return list(zip(models, logs))


def predict_stacked(models, clips) -> np.ndarray:
    """``np.stack([m.predict_batch(clips) for m in models])``, as (M, N, C).

    The models share kind, ``n`` and feature dim. Avg-pool heads score all
    clips in one batched pass over the pooled frame features, and member
    m's rows are bit for bit ``models[m].predict_batch(clips)``; other heads
    are scored one model at a time.
    """
    first = models[0]
    if first.kind != "avg-pool" or not clips:
        return np.stack([m.predict_batch(clips) for m in models])
    _check_feature_dim(clips, first.d_feature)
    P = _stack_selected(clips, first.n)[0].mean(axis=1)
    W = np.stack([m.classifier.W.values for m in models])
    b = np.stack([m.classifier.b.values for m in models])
    probs = _stacked_logits(P, W, b)
    for m, logits in enumerate(probs):  # per member: temporaries stay (N, C)
        probs[m] = softmax(logits, axis=-1)
    return probs
