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
from .data import Clip, Dataset, quoted
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
                raise ContractError(
                    f"clip {quoted(clip.id, spell=str)} has no audio features")
            if clip.audio.shape[0] != self.d_audio:
                raise ContractError(
                    f"clip {quoted(clip.id, spell=str)}: audio dim "
                    f"{clip.audio.shape[0]} does not match model dim "
                    f"{self.d_audio}")
        if not clips:
            return np.empty((0, self.n_classes))
        X = np.stack([c.audio for c in clips])
        if self.kind == "mlp":
            logits, _ = self.mlp.forward(X, mode=EVAL)
            return softmax(logits, axis=1)
        return self.forest.predict_proba(X)

    def predict(self, clip: Clip) -> np.ndarray:
        return self.predict_batch([clip])[0]


def _audio_matrix(clips):
    """(X, y) of labeled ``clips`` with audio; (None, None) if none."""
    if not clips:
        return None, None
    return (np.stack([c.audio for c in clips]),
            np.array([c.label for c in clips], dtype=np.int64))


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
    No split is scored here: accuracies come from ``predict_batch``, but a
    forest's log keeps its ``train_accuracy`` on its own training rows.
    """
    if config.model == "forest" and pretrain is not None:
        raise ContractError("the forest model does not support pretraining")
    config.validate()
    if ds.d_audio is None:
        raise TrainingError("dataset has no audio features")
    X, y = _audio_matrix(ds.labeled("train", "audio"))
    if X is None:
        raise TrainingError("train split has no labeled clips with audio")
    seeds = list(seeds)
    if config.model == "forest":
        out = []
        for seed in seeds:
            f = train_forest(X, y, ds.n_classes, n_trees=config.n_trees,
                             seed=seed, max_depth=config.max_depth,
                             max_features=config.max_features)
            model = AudioModel("forest", ds.d_audio, ds.n_classes, forest=f)
            out.append((model, {
                "train_accuracy": float((f.predict(X) == y).mean()),
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

        return train_minibatches(stack.params(), step, rngs, seeds, len(y),
                                 epochs, lr, config, phase)

    pretrain_logs = [[] for _ in seeds]
    lr = config.lr
    if pretrain is not None:
        if pretrain.d_audio != ds.d_audio or pretrain.n_classes != ds.n_classes:
            raise ContractError("pretraining dataset dims do not match target")
        Xp, yp = _audio_matrix(pretrain.labeled(modality="audio"))
        if Xp is None:
            raise TrainingError("pretraining dataset has no labeled audio")
        p_epochs = (config.epochs if config.pretrain_epochs is None
                    else config.pretrain_epochs)
        pretrain_logs = train(Xp, yp, p_epochs, lr, "pretraining")
        lr = config.lr * config.finetune_lr_ratio
    train_logs = train(X, y, config.epochs, lr, "training")
    return [(AudioModel("mlp", ds.d_audio, ds.n_classes, mlp=mlp),
             {"pretrain_loss": [e["train_loss"] for e in pre],
              "train_loss": [e["train_loss"] for e in log], "lr": lr})
            for mlp, pre, log in zip(mlps, pretrain_logs, train_logs)]


def train_audio_model(ds: Dataset, config: TrainConfig, seed: int,
                      pretrain: Dataset | None = None):
    """Fit ``config.model`` for one seed; returns (model, log).

    The one-seed call of :func:`train_audio_models`.
    """
    return train_audio_models(ds, config, [seed], pretrain)[0]
