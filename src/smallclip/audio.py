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
from .optim import train_minibatches


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


def train_audio_mlp(ds: Dataset, config: TrainConfig, seed: int,
                    pretrain: Dataset | None = None):
    """Fit the audio MLP on the train split; returns (model, log).

    Clips without audio or labels are skipped. When ``pretrain`` is given,
    the net first trains on that dataset's labeled audio, then fine-tunes on
    the target train split at ``lr * finetune_lr_ratio``. Both phases run
    ``optim.train_minibatches`` as a stack of one; the rng
    ``default_rng([seed, 0xA0D])`` draws the init, then each epoch's
    permutation and that epoch's dropout masks. A non-finite loss or
    gradient raises a TrainingError naming the phase, epoch and seed.
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

    def train(X, y, epochs, lr, phase):
        def step(batch):
            rows = batch[0]
            logits, cache = mlp.forward(X[rows], mode=TRAIN, rng=rng)
            loss, dlogits, _ = softmax_cross_entropy_batch(logits, y[rows])
            mlp.backward(cache, dlogits)
            return np.array([loss])

        log, = train_minibatches(mlp.params(), step, [rng], [seed], len(y),
                                 epochs, lr, config, phase=phase)
        return [e["train_loss"] for e in log]

    log = {"pretrain_loss": [], "train_loss": [], "lr": config.lr}
    lr = config.lr
    if pretrain is not None:
        if pretrain.d_audio != ds.d_audio or pretrain.n_classes != ds.n_classes:
            raise ContractError("pretraining dataset dims do not match target")
        Xp, yp = _audio_matrix(pretrain.labeled(), ds.d_audio)
        if Xp is None:
            raise TrainingError("pretraining dataset has no labeled audio")
        p_epochs = (config.epochs if config.pretrain_epochs is None
                    else config.pretrain_epochs)
        log["pretrain_loss"] = train(Xp, yp, p_epochs, lr, "pretraining")
        lr = config.lr * config.finetune_lr_ratio
        log["lr"] = lr
    log["train_loss"] = train(X, y, config.epochs, lr, "training")
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
