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
from .data import Clip, Dataset, argmax_lowest
from .errors import ContractError, TrainingError
from .nn import (LSTMParams, Linear, ParamTensor, lstm_backward,
                 lstm_forward, sigmoid, softmax, softmax_cross_entropy_batch)
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


def pool_average(F) -> np.ndarray:
    """Unweighted mean of each clip's selected frame features.

    ``F`` is (B, n, D), one row of frames per clip; returns (B, D).
    """
    return F.mean(axis=1)


def pool_weighted(F, AV, regressor: Linear):
    """Weighted mean of each clip's frames, weights sigmoid(av @ a + b).

    ``F`` is (B, n, D) and ``AV`` (B, n, 2); returns ``(pooled, w)`` of
    shapes (B, D) and (B, n). Weights are strictly positive (sigmoid), and
    each pooled row is the weight-normalized average of its clip's frames,
    so a zero regressor (all weights 0.5) reduces to the plain average.
    """
    z = AV.reshape(-1, 2) @ regressor.W.values.T + regressor.b.values
    w = sigmoid(z.reshape(F.shape[0], F.shape[1]))
    pooled = np.einsum("bn,bnd->bd", w, F) / w.sum(axis=1)[:, None]
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

    def forward_batch(self, F, AV, keep_cache=True, spent=None):
        """Logits for a batch of selected clips; returns (logits, cache).

        ``keep_cache=False`` is for inference: the LSTM then keeps no BPTT
        caches, so the returned cache cannot be passed to ``backward_batch``.
        ``spent`` may be an earlier cache that ``backward_batch`` has
        consumed; the LSTM writes its new BPTT cache into it
        (``lstm_forward``'s ``cache``). Other heads ignore it.
        """
        if self.kind == "avg-pool":
            logits, lcache = self.classifier.forward(pool_average(F))
            return logits, (lcache, F.shape[1])
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
            return np.repeat(dpooled[:, None, :], n, axis=1) / n
        if self.kind == "weighted-avg-pool":
            lcache, F, AV, w, pooled = cache
            s = w.sum(axis=1)
            dpooled = self.classifier.backward(lcache, dlogits)
            # quotient rule through pooled = sum_i w_i f_i / sum_i w_i
            dw = np.einsum("bnd,bd->bn", F - pooled[:, None, :], dpooled)
            dw /= s[:, None]
            dz = dw * w * (1.0 - w)
            self.regressor.W.grad += dz.reshape(1, -1) @ AV.reshape(-1, 2)
            self.regressor.b.grad += dz.sum()
            return w[:, :, None] * dpooled[:, None, :] / s[:, None, None]
        if self.kind == "lstm":
            lcache, lstm_cache, shape = cache
            dh = self.classifier.backward(lcache, dlogits)
            return lstm_backward(self.lstm, lstm_cache, dh)
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


def _split_accuracy(model: VideoModel, clips) -> float | None:
    labeled = [c for c in clips if c.label is not None]
    if not labeled:
        return None
    pred = model.predict_batch(labeled).argmax(axis=1)
    hits = int(np.sum(pred == [c.label for c in labeled]))
    return hits / len(labeled)


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


def _train_avg_pool_stack(models, rngs, seeds, P, y, val_batch, config):
    """Train avg-pool members in lockstep, stacked on a leading axis.

    Avg-pool's pooling has no parameters, so ``P``, the train clips' mean
    frame features computed once, feeds every step. Each member gathers its
    own batch rows; every matmul, softmax and reduction runs per member
    slice, and the optimizers are elementwise, so each member's parameters
    and log are bit for bit those it gets when trained alone. Returns one
    log per member.
    """
    W = ParamTensor("classifier.W",
                    np.stack([m.classifier.W.values for m in models]))
    b = ParamTensor("classifier.b",
                    np.stack([m.classifier.b.values for m in models]))
    val = None
    if val_batch is not None:
        P_val = pool_average(val_batch[0])
        val = (lambda: _stacked_logits(P_val, W.values, b.values),
               val_batch[2])
    logs = train_minibatches(
        [W, b], lambda batch: stacked_avg_pool_loss(P[batch], y[batch], W, b),
        rngs, seeds, len(y), config.epochs, config.lr, config, val)
    for model, W_m, b_m in zip(models, W.values, b.values):
        model.classifier.W.values = W_m.copy()
        model.classifier.b.values = b_m.copy()
    return logs


def _train_alone(model, rng, seed, F, AV, y, val_batch, config):
    """Train one head of any trainable kind as a stack of one, through
    ``forward_batch``/``backward_batch``; returns its per-epoch log. Each
    step hands the cache the previous step's backward consumed to the next
    forward, to be written over."""
    spent = None

    def step(batch):
        nonlocal spent
        rows = batch[0]
        logits, cache = model.forward_batch(F[rows], AV[rows], spent=spent)
        loss, dlogits, _ = softmax_cross_entropy_batch(logits, y[rows])
        model.backward_batch(cache, dlogits)
        spent = cache
        return np.array([loss])

    val = None
    if val_batch is not None:
        F_val, AV_val, y_val = val_batch
        val = (lambda: model.forward_batch(F_val, AV_val,
                                           keep_cache=False)[0][None], y_val)
    return train_minibatches(model.params(), step, [rng], [seed], len(y),
                             config.epochs, config.lr, config, val)[0]


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
    parameters are trained. Every head trains in ``optim.train_minibatches``:
    avg-pool members in lockstep as one stacked model
    (``_train_avg_pool_stack``), the other heads one after another as
    stacks of one. A non-finite loss or gradient raises a TrainingError
    naming the epoch and the first failing member's seed.
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
        logs = _train_avg_pool_stack(models, rngs, seeds, pool_average(F), y,
                                     val_batch, config)
    else:
        logs = [_train_alone(model, rng, seed, F, AV, y, val_batch, config)
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
    P = pool_average(_stack_selected(clips, first.n)[0])
    W = np.stack([m.classifier.W.values for m in models])
    b = np.stack([m.classifier.b.values for m in models])
    probs = _stacked_logits(P, W, b)
    for m, logits in enumerate(probs):  # per member: temporaries stay (N, C)
        probs[m] = softmax(logits, axis=-1)
    return probs
