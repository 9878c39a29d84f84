"""Audio side: a small MLP over clip-level audio features, or a random forest.

The MLP is audio -> hidden (default 64, batch-norm + relu + dropout) -> class
logits. It can optionally be pretrained on a separate labeled corpus and then
fine-tuned on the target training set at a reduced learning rate, which is
where it earns its keep on small target sets. The forest variant needs no
gradient training and overfits its bootstrap sample almost perfectly.
"""

from __future__ import annotations

import numpy as np

from .config import TrainConfig
from .data import Clip, Dataset
from .errors import ContractError, TrainingError
from .forest import Forest, train_forest
from .nn import EVAL, TRAIN, MLPHead, softmax, softmax_cross_entropy_batch
from .optim import make_optimizer


class AudioModel:
    """Container for either audio classifier kind ('mlp' or 'forest')."""

    def __init__(self, kind: str, d_audio: int, n_classes: int, mlp=None,
                 forest=None):
        if kind not in ("mlp", "forest"):
            raise ContractError(f"unknown audio model kind {kind!r}")
        self.kind = kind
        self.d_audio = d_audio
        self.n_classes = n_classes
        self.mlp = mlp
        self.forest = forest

    def params(self):
        return self.mlp.params() if self.mlp is not None else []

    def predict_batch(self, clips) -> np.ndarray:
        """Class probabilities (N, C), one row per clip, in order.

        The only inference path: one MLP forward or one forest traversal
        over the stacked audio vectors. ``predict`` is its one-row case.
        """
        for clip in clips:
            if clip.audio is None:
                raise ContractError(f"clip {clip.id} has no audio features")
            if clip.audio.shape[0] != self.d_audio:
                raise ContractError(
                    f"clip {clip.id}: audio dim {clip.audio.shape[0]} does "
                    f"not match model dim {self.d_audio}")
        if not clips:
            return np.empty((0, self.n_classes))
        X = np.stack([c.audio for c in clips])
        if self.kind == "mlp":
            logits, _ = self.mlp.forward(X, mode=EVAL)
            return softmax(logits, axis=1)
        return self.forest.predict_proba(X)

    def predict(self, clip: Clip) -> np.ndarray:
        return self.predict_batch([clip])[0]


def predict_audio(model: AudioModel, clip: Clip) -> np.ndarray:
    """Class probabilities for one clip's audio features."""
    return model.predict(clip)


def _audio_matrix(clips, d_audio=None, require_label=True):
    rows, labels = [], []
    for c in clips:
        if c.audio is None or (require_label and c.label is None):
            continue
        rows.append(c.audio)
        labels.append(-1 if c.label is None else c.label)
    if not rows:
        return None, None
    X = np.stack(rows)
    if d_audio is not None and X.shape[1] != d_audio:
        raise ContractError(f"audio dim {X.shape[1]} does not match {d_audio}")
    return X, np.asarray(labels, dtype=np.int64)


def _val_accuracy(model: AudioModel, clips) -> float | None:
    usable = [c for c in clips if c.audio is not None and c.label is not None]
    if not usable:
        return None
    pred = model.predict_batch(usable).argmax(axis=1)
    hits = int(np.sum(pred == [c.label for c in usable]))
    return hits / len(usable)


def _run_epochs(mlp, X, y, epochs, lr, config, rng, phase):
    opt = make_optimizer(mlp.params(), config.optimizer, lr=lr,
                         momentum=config.momentum)
    n = X.shape[0]
    losses = []
    for epoch in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            batch = perm[start:start + config.batch_size]
            logits, cache = mlp.forward(X[batch], mode=TRAIN, rng=rng)
            loss, dlogits, _ = softmax_cross_entropy_batch(logits, y[batch])
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss in {phase} epoch "
                                    f"{epoch}; try a lower lr")
            mlp.backward(cache, dlogits)
            opt.step()
            total += loss * batch.size
        losses.append(total / n)
    return losses


def train_audio_mlp(ds: Dataset, config: TrainConfig, seed: int,
                    pretrain: Dataset | None = None):
    """Fit the audio MLP on the train split; returns (model, log).

    Clips without audio or labels are skipped. When ``pretrain`` is given,
    the net first trains on that dataset's labeled audio, then fine-tunes on
    the target train split at ``lr * finetune_lr_ratio``.
    """
    config.validate()
    if ds.d_audio is None:
        raise TrainingError("dataset has no audio features")
    X, y = _audio_matrix(ds.split("train"), ds.d_audio)
    if X is None:
        raise TrainingError("train split has no labeled clips with audio")
    rng = np.random.default_rng([seed, 0xA0D])
    mlp = MLPHead(ds.d_audio, config.hidden, ds.n_classes,
                  dropout=config.dropout, rng=rng, name="audio")
    model = AudioModel("mlp", ds.d_audio, ds.n_classes, mlp=mlp)

    log = {"pretrain_loss": [], "train_loss": [], "lr": config.lr}
    lr = config.lr
    if pretrain is not None:
        if pretrain.d_audio != ds.d_audio or pretrain.n_classes != ds.n_classes:
            raise ContractError("pretraining dataset dims do not match target")
        Xp, yp = _audio_matrix(pretrain.labeled(), ds.d_audio)
        if Xp is None:
            raise TrainingError("pretraining dataset has no labeled audio")
        p_epochs = config.pretrain_epochs or config.epochs
        log["pretrain_loss"] = _run_epochs(mlp, Xp, yp, p_epochs, lr, config,
                                           rng, "pretraining")
        lr = config.lr * config.finetune_lr_ratio
        log["lr"] = lr
    log["train_loss"] = _run_epochs(mlp, X, y, config.epochs, lr, config, rng,
                                    "training")
    log["val_accuracy"] = _val_accuracy(model, ds.split("val"))
    return model, log


def train_audio_forest(ds: Dataset, config: TrainConfig, seed: int):
    """Fit the random-forest audio classifier; returns (model, log)."""
    config.validate()
    if ds.d_audio is None:
        raise TrainingError("dataset has no audio features")
    X, y = _audio_matrix(ds.split("train"), ds.d_audio)
    if X is None:
        raise TrainingError("train split has no labeled clips with audio")
    f = train_forest(X, y, ds.n_classes, n_trees=config.n_trees, seed=seed,
                     max_depth=config.max_depth,
                     max_features=config.max_features)
    model = AudioModel("forest", ds.d_audio, ds.n_classes, forest=f)
    train_acc = float((f.predict(X) == y).mean())
    return model, {"train_accuracy": train_acc,
                   "val_accuracy": _val_accuracy(model, ds.split("val")),
                   "n_trees": len(f.trees)}


def train_audio_model(ds: Dataset, config: TrainConfig, seed: int,
                      pretrain: Dataset | None = None):
    """Dispatch on ``config.model``; returns (model, log)."""
    if config.model == "forest":
        if pretrain is not None:
            raise ContractError("the forest model does not support pretraining")
        return train_audio_forest(ds, config, seed)
    return train_audio_mlp(ds, config, seed, pretrain=pretrain)
