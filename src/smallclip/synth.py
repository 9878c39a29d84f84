"""Labeled synthetic datasets for desk-scale verification.

Generative recipe (recorded in ``Dataset.meta`` so tests can build an
independent nearest-centroid oracle):

* each class k gets a feature centroid of norm ``margin`` (mutually orthogonal
  directions whenever the dimension allows, so pairwise distances are
  ``margin * sqrt(2)``), an audio centroid built the same way, and a
  class-specific arousal-valence mean;
* frame features  = centroid_k + noise * gauss
* frame scores    = softmax(margin * one_hot(k) + noise * gauss)  -- with
  margin 0 the scores carry no signal, so every classifier degrades to chance
* frame av        = av_mean_k + av_noise * gauss
* clip audio      = audio_centroid_k + noise * gauss

Generation is a pure function of (config, seed): repeated calls produce
byte-identical manifests.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .data import Clip, Dataset, build_dataset
from .errors import ConfigError


@dataclass
class SynthConfig:
    n_classes: int = 7
    train_per_class: int = 20
    val_per_class: int = 10
    test_per_class: int = 0
    frames_min: int = 6
    frames_max: int = 18
    d_feature: int = 32
    d_audio: int = 64
    with_audio: bool = True
    margin: float = 5.0
    noise: float = 0.1
    av_noise: float = 0.1
    # Share class geometry across datasets (auxiliary pretraining manifests):
    # same centroid_seed => same centroids, independent samples.
    centroid_seed: int | None = None

    def validate(self):
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        for name in ("train_per_class", "val_per_class", "test_per_class"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.train_per_class + self.val_per_class + self.test_per_class == 0:
            raise ConfigError("at least one split must have clips")
        if not (1 <= self.frames_min <= self.frames_max):
            raise ConfigError("need 1 <= frames_min <= frames_max")
        if self.d_feature < 1 or (self.with_audio and self.d_audio < 1):
            raise ConfigError("dimensions must be positive")
        for name in ("margin", "noise", "av_noise"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:  # false for nan too
                raise ConfigError(f"{name} must be finite and >= 0, "
                                  f"got {value}")


def _spread_centroids(rng, n_classes, dim, margin):
    """Rows of norm ``margin``, mutually orthogonal when dim >= n_classes."""
    g = rng.standard_normal((dim, n_classes))
    if dim >= n_classes:
        q, _ = np.linalg.qr(g)
        dirs = q[:, :n_classes].T
    else:
        dirs = g.T
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return margin * dirs


def generate_synthetic(config: SynthConfig, seed: int) -> Dataset:
    """Generate a labeled dataset; deterministic in (config, seed)."""
    config.validate()
    centroid_seed = config.centroid_seed if config.centroid_seed is not None else seed
    # Distinct stream keys keep centroid draws independent of sample draws
    # even when both seeds coincide.
    geom_rng = np.random.default_rng([int(centroid_seed), 0xC3])
    rng = np.random.default_rng([int(seed), 0x5A])

    C, Df = config.n_classes, config.d_feature
    feature_centroids = _spread_centroids(geom_rng, C, Df, config.margin)
    audio_centroids = (
        _spread_centroids(geom_rng, C, config.d_audio, config.margin)
        if config.with_audio else None
    )
    av_means = geom_rng.uniform(-0.6, 0.6, size=(C, 2))

    clips = []
    per_split = (("train", config.train_per_class), ("val", config.val_per_class),
                 ("test", config.test_per_class))
    for split, count in per_split:
        for k in range(C):
            one_hot = np.zeros(C)
            one_hot[k] = config.margin
            for i in range(count):
                L = int(rng.integers(config.frames_min, config.frames_max + 1))
                features = feature_centroids[k] + config.noise * rng.standard_normal((L, Df))
                logits = one_hot + config.noise * rng.standard_normal((L, C))
                z = logits - logits.max(axis=1, keepdims=True)
                scores = np.exp(z)
                scores /= scores.sum(axis=1, keepdims=True)
                av = av_means[k] + config.av_noise * rng.standard_normal((L, 2))
                audio = None
                if config.with_audio:
                    audio = audio_centroids[k] + config.noise * rng.standard_normal(config.d_audio)
                clips.append(Clip(f"synth-{split}-c{k}-{i:03d}", split,
                                  features, scores, av, audio=audio, label=k))

    meta = {
        "generator": "smallclip.synth",
        "seed": int(seed),
        "config": asdict(config),
        "feature_centroids": feature_centroids,
        "audio_centroids": audio_centroids,
        "av_means": av_means,
    }
    return build_dataset(clips, meta=meta)
