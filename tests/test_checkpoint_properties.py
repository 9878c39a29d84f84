"""Property test for the checkpoint parser: structural mutations of valid
version-2 checkpoints either fail to load with a ParseError or load to a
model that predicts."""

import base64
import functools
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CHECKPOINT_INT_ARRAYS, version2_record
from smallclip.audio import train_audio_model
from smallclip.checkpoint import checkpoint_dict, model_from_dict
from smallclip.config import TrainConfig
from smallclip.errors import ParseError
from smallclip.synth import SynthConfig, generate_synthetic
from smallclip.video import train_video_model

BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# characters a mutation writes into a base64 string: the alphabet, padding,
# and some that no base64 string may hold
CHARS = BASE64 + "=!- \né"


@functools.lru_cache(maxsize=None)
def _dataset():
    cfg = SynthConfig(train_per_class=4, val_per_class=2, test_per_class=1,
                      n_classes=3, d_feature=5, d_audio=6, frames_min=2,
                      frames_max=5, margin=5.0, noise=0.2)
    return generate_synthetic(cfg, 0)


@functools.lru_cache(maxsize=None)
def _checkpoint(name):
    """A trained model's version-2 checkpoint, as JSON text."""
    ds = _dataset()
    if name == "mlp":
        model, _ = train_audio_model(ds, TrainConfig(model="mlp", epochs=1,
                                                     hidden=8), seed=0)
    elif name == "forest":
        model, _ = train_audio_model(ds, TrainConfig(model="forest",
                                                     n_trees=3), seed=0)
    else:
        model, _ = train_video_model(ds, TrainConfig(
            head=name, epochs=1, n=4, lstm_hidden=8), seed=0)
    return json.dumps(checkpoint_dict(model))


def _records(obj):
    """Every array record of ``obj`` as (its parent, its key, its dtype)."""
    found = []

    def walk(node):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            if isinstance(child, dict) and set(child) == {"shape", "data"}:
                found.append((node, key, np.int64 if key in
                              CHECKPOINT_INT_ARRAYS else np.float64))
            else:
                walk(child)
    walk(obj)
    return found


def _values(record, dtype):
    return np.frombuffer(base64.b64decode(record["data"]),
                         np.dtype(dtype).newbyteorder("<")).astype(dtype)


def _mutate_shape(draw, parent, key, dtype):
    shape = parent[key]["shape"]
    if shape and draw(st.booleans()):
        i = draw(st.integers(0, len(shape) - 1))
        shape[i] = draw(st.integers(-2, 2 * shape[i] + 2))
    else:
        parent[key]["shape"] = draw(st.lists(st.integers(-1, 12), max_size=3))


def _mutate_base64(draw, parent, key, dtype):
    data = parent[key]["data"]
    if data and draw(st.booleans()):
        i = draw(st.integers(0, len(data) - 1))
        data = data[:i] + draw(st.sampled_from(CHARS)) + data[i + 1:]
    else:
        data = data[:draw(st.integers(0, max(len(data) - 1, 0)))]
    parent[key]["data"] = data


def _mutate_index(draw, parent, key, dtype):
    """Re-encode one tree's feature, left or right array with one index
    changed."""
    tree = parent[key]
    name = draw(st.sampled_from(["feature", "left", "right"]))
    values = _values(tree[name], np.int64)
    n = values.shape[0]
    i = draw(st.integers(0, n - 1))
    values[i] = draw(st.one_of(st.integers(-3, n + 3),
                               st.integers(-2 ** 63, 2 ** 63 - 1)))
    tree[name] = version2_record(values, np.int64)


def _mutate_nonfinite(draw, parent, key, dtype):
    values = _values(parent[key], dtype)
    if values.size:
        values[draw(st.integers(0, values.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    parent[key] = version2_record(values.reshape(parent[key]["shape"]),
                                  dtype)


@st.composite
def mutated_checkpoints(draw):
    """A trained checkpoint with one mutation of any kind, then perhaps a
    shape or base64 one (those two need no record to decode)."""
    name = draw(st.sampled_from(["avg-pool", "weighted-avg-pool", "lstm",
                                 "mlp", "forest"]))
    obj = json.loads(_checkpoint(name))
    kinds = [_mutate_shape, _mutate_base64, _mutate_nonfinite]
    if name == "forest":
        kinds.append(_mutate_index)
    mutations = [draw(st.sampled_from(kinds))]
    if draw(st.booleans()):
        mutations.append(draw(st.sampled_from(kinds[:2])))
    for mutate in mutations:
        records = _records(obj)
        if mutate is _mutate_index:
            trees = obj["extra"]["trees"]
            target = (trees, draw(st.integers(0, len(trees) - 1)), None)
        else:
            if mutate is _mutate_nonfinite:
                records = [r for r in records if r[2] == np.float64]
            target = draw(st.sampled_from(records))
        mutate(draw, *target)
    return name, obj


@settings(max_examples=300, derandomize=True, deadline=2000, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_checkpoints())
def test_mutated_checkpoint_is_rejected_or_predicts(case):
    name, obj = case
    try:
        model = model_from_dict(obj)
    except ParseError:
        return
    clips = _dataset().split("test")
    # finite but extreme weights may overflow; the property is that the
    # model predicts, not what it predicts
    with np.errstate(all="ignore"):
        probs = model.predict_batch(clips)
    assert probs.shape == (len(clips), 3)
