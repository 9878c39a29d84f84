import numpy as np
import pytest

from smallclip.data import Clip, build_dataset
from smallclip.nn import softmax


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
