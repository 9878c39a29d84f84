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
from .nn import (EVAL, TRAIN, MLPHead, softmax, softmax_cross_entropy_batch,
                 stack_members)
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


def _audio_matrix(clips, d_audio=None):
    rows, labels = [], []
    for c in clips:
        if c.audio is None or c.label is None:
            continue
        rows.append(c.audio)
        labels.append(c.label)
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


def train_audio_models(ds: Dataset, config: TrainConfig, seeds,
                       pretrain: Dataset | None = None):
    """Fit ``config.model`` once per seed on the train split; returns
    [(model, log), ...].

    Clips without audio or labels are skipped. Forests grow one per seed.
    The MLP members train in lockstep as one stacked model
    (``nn.stack_members``) in ``optim.train_minibatches``: first on
    ``pretrain``'s labeled audio when it is given, then on the target train
    split, at ``lr * finetune_lr_ratio`` after pretraining. Member m's rng
    ``default_rng([seeds[m], 0xA0D])`` draws its init, then each epoch's
    permutation and that epoch's dropout masks, so every member is bit for
    bit what it is when trained alone. A non-finite loss or gradient raises
    a TrainingError naming the phase, epoch and first failing member's seed.
    """
    if config.model == "forest" and pretrain is not None:
        raise ContractError("the forest model does not support pretraining")
    config.validate()
    if ds.d_audio is None:
        raise TrainingError("dataset has no audio features")
    X, y = _audio_matrix(ds.split("train"), ds.d_audio)
    if X is None:
        raise TrainingError("train split has no labeled clips with audio")
    seeds, val = list(seeds), ds.split("val")
    if config.model == "forest":
        out = []
        for seed in seeds:
            f = train_forest(X, y, ds.n_classes, n_trees=config.n_trees,
                             seed=seed, max_depth=config.max_depth,
                             max_features=config.max_features)
            model = AudioModel("forest", ds.d_audio, ds.n_classes, forest=f)
            train_acc = float((f.predict(X) == y).mean())
            out.append((model, {"train_accuracy": train_acc,
                                "val_accuracy": _val_accuracy(model, val),
                                "n_trees": len(f.trees)}))
        return out
    if not seeds:
        return []
    rngs = [np.random.default_rng([seed, 0xA0D]) for seed in seeds]
    mlps = [MLPHead(ds.d_audio, config.hidden, ds.n_classes,
                    dropout=config.dropout, rng=rng, name="audio")
            for rng in rngs]
    stack = stack_members(mlps)

    def train(X, y, epochs, lr, phase):
        def step(batch):
            logits, cache = stack.forward(X[batch], mode=TRAIN, rng=rngs)
            loss, dlogits, _ = softmax_cross_entropy_batch(logits, y[batch])
            stack.backward(cache, dlogits)
            return loss

        logs = train_minibatches(stack.params(), step, rngs, seeds, len(y),
                                 epochs, lr, config, phase=phase)
        return [[e["train_loss"] for e in log] for log in logs]

    pretrain_losses = [[] for _ in seeds]
    lr = config.lr
    if pretrain is not None:
        if pretrain.d_audio != ds.d_audio or pretrain.n_classes != ds.n_classes:
            raise ContractError("pretraining dataset dims do not match target")
        Xp, yp = _audio_matrix(pretrain.labeled(), ds.d_audio)
        if Xp is None:
            raise TrainingError("pretraining dataset has no labeled audio")
        p_epochs = (config.epochs if config.pretrain_epochs is None
                    else config.pretrain_epochs)
        pretrain_losses = train(Xp, yp, p_epochs, lr, "pretraining")
        lr = config.lr * config.finetune_lr_ratio
    train_losses = train(X, y, config.epochs, lr, "training")
    models = [AudioModel("mlp", ds.d_audio, ds.n_classes, mlp=mlp)
              for mlp in mlps]
    return [(model, {"pretrain_loss": pre, "train_loss": losses, "lr": lr,
                     "val_accuracy": _val_accuracy(model, val)})
            for model, pre, losses
            in zip(models, pretrain_losses, train_losses)]


def train_audio_model(ds: Dataset, config: TrainConfig, seed: int,
                      pretrain: Dataset | None = None):
    """Fit ``config.model`` for one seed; returns (model, log).

    The one-seed call of :func:`train_audio_models`.
    """
    return train_audio_models(ds, config, [seed], pretrain)[0]
