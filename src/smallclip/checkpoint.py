"""Versioned JSON checkpoints for trained models.

Layout (version 1):

    {"format": "smallclip-checkpoint", "version": 1,
     "kind": "video" | "audio-mlp" | "audio-forest",
     "meta": {...dims and head/model settings...},
     "params": {"<name>": {"shape": [...], "data": [...]}, ...},
     "extra": {...running stats or forest arrays...}}

Floats go through JSON's shortest-roundtrip repr, so save/load is bit-exact.
Parameter tensors are keyed by their full name; loading restores values,
batch-norm running statistics, and forest structure, which is everything the
eval path reads.
"""

from __future__ import annotations

import json

import numpy as np

from .audio import AudioModel
from .data import atomic_write_text, read_text
from .errors import ContractError, ParseError
from .forest import Forest, Tree
from .nn import MLPHead
from .video import VideoModel

FORMAT = "smallclip-checkpoint"
VERSION = 1


def _arr(a, as_int=False):
    a = np.asarray(a)
    data = a.ravel().tolist()
    if as_int:
        data = [int(v) for v in data]
    return {"shape": list(a.shape), "data": data}


def _unarr(obj, dtype=np.float64):
    try:
        return np.asarray(obj["data"], dtype=dtype).reshape(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad array record in checkpoint: {exc}") from exc


def _params_dict(params):
    return {p.name: _arr(p.values) for p in params}


def _restore_params(params, blob):
    for p in params:
        if p.name not in blob:
            raise ParseError(f"checkpoint is missing parameter {p.name!r}")
        values = _unarr(blob[p.name])
        if values.shape != p.values.shape:
            raise ParseError(f"parameter {p.name!r} has shape "
                             f"{values.shape}, expected {p.values.shape}")
        p.values = values


def checkpoint_dict(model) -> dict:
    if isinstance(model, VideoModel):
        meta = {"head": model.kind, "n": model.n,
                "d_feature": model.d_feature, "n_classes": model.n_classes,
                "score_mode": model.score_mode,
                "lstm_hidden": model.lstm_hidden}
        return {"format": FORMAT, "version": VERSION, "kind": "video",
                "meta": meta, "params": _params_dict(model.params()),
                "extra": {}}
    if isinstance(model, AudioModel) and model.kind == "mlp":
        mlp = model.mlp
        meta = {"d_audio": model.d_audio, "n_classes": model.n_classes,
                "hidden": mlp.hidden, "dropout": mlp.dropout.rate}
        extra = {"running_mean": _arr(mlp.bn.running_mean),
                 "running_var": _arr(mlp.bn.running_var)}
        return {"format": FORMAT, "version": VERSION, "kind": "audio-mlp",
                "meta": meta, "params": _params_dict(mlp.params()),
                "extra": extra}
    if isinstance(model, AudioModel) and model.kind == "forest":
        f = model.forest
        trees = [{"feature": _arr(t.feature, as_int=True),
                  "threshold": _arr(t.threshold),
                  "left": _arr(t.left, as_int=True),
                  "right": _arr(t.right, as_int=True),
                  "hist": _arr(t.hist, as_int=True)} for t in f.trees]
        meta = {"d_audio": model.d_audio, "n_classes": model.n_classes,
                "n_trees": len(f.trees), "seed": f.seed}
        return {"format": FORMAT, "version": VERSION, "kind": "audio-forest",
                "meta": meta, "params": {}, "extra": {"trees": trees}}
    raise ContractError(f"cannot checkpoint object of type {type(model).__name__}")


def save_checkpoint(model, path):
    atomic_write_text(path, json.dumps(checkpoint_dict(model)) + "\n")


def _check_tree(i, tree: Tree, d_audio, n_classes):
    """ParseError naming tree ``i`` unless ``kernels.tree_apply`` walks it
    to a leaf with a usable histogram: children come after their parent (as
    ``grow_tree`` numbers them), so every walk moves forward and ends."""
    n = tree.feature.shape[0] if tree.feature.ndim == 1 else 0
    leaf, node = tree.feature == -1, np.arange(n)
    if n < 1 or any(a.shape != (n,) for a in
                    (tree.threshold, tree.left, tree.right)):
        problem = "its node arrays must share one length of at least 1"
    elif tree.hist.shape != (n, n_classes):
        problem = (f"hist has shape {tree.hist.shape}, expected "
                   f"{(n, n_classes)}")
    elif np.any(~leaf & ((tree.feature < 0) | (tree.feature >= d_audio))):
        problem = f"a feature index is not -1 or in [0, {d_audio})"
    elif np.any(np.where(
            leaf, (tree.left != -1) | (tree.right != -1),
            (tree.left <= node) | (tree.left >= n)
            | (tree.right <= node) | (tree.right >= n))):
        problem = ("a child index is not after its parent and inside the "
                   "tree, or a leaf has children")
    elif np.any(tree.hist < 0) or np.any(leaf & (tree.hist.sum(axis=1) <= 0)):
        problem = "hist must be nonnegative with a positive sum at every leaf"
    else:
        return
    raise ParseError(f"malformed checkpoint: tree {i}: {problem}")


def model_from_dict(obj) -> VideoModel | AudioModel:
    if not isinstance(obj, dict) or obj.get("format") != FORMAT:
        raise ParseError("not a model checkpoint")
    if obj.get("version") != VERSION:
        raise ParseError(f"unsupported checkpoint version {obj.get('version')!r}")
    kind = obj.get("kind")
    meta = obj.get("meta", {})
    try:
        if kind == "video":
            model = VideoModel(meta["head"], meta["n"], meta["d_feature"],
                               meta["n_classes"], score_mode=meta["score_mode"],
                               lstm_hidden=meta["lstm_hidden"])
            _restore_params(model.params(), obj["params"])
            return model
        if kind == "audio-mlp":
            mlp = MLPHead(meta["d_audio"], meta["hidden"], meta["n_classes"],
                          dropout=meta["dropout"], name="audio")
            _restore_params(mlp.params(), obj["params"])
            mlp.bn.running_mean = _unarr(obj["extra"]["running_mean"])
            mlp.bn.running_var = _unarr(obj["extra"]["running_var"])
            return AudioModel("mlp", meta["d_audio"], meta["n_classes"],
                              mlp=mlp)
        if kind == "audio-forest":
            trees = [Tree(_unarr(t["feature"], np.int64),
                          _unarr(t["threshold"]),
                          _unarr(t["left"], np.int64),
                          _unarr(t["right"], np.int64),
                          _unarr(t["hist"], np.int64))
                     for t in obj["extra"]["trees"]]
            if not trees:
                raise ParseError("malformed checkpoint: forest has no trees")
            for i, tree in enumerate(trees):
                _check_tree(i, tree, meta["d_audio"], meta["n_classes"])
            f = Forest(trees, meta["n_classes"], meta["d_audio"],
                       meta.get("seed", 0))
            return AudioModel("forest", meta["d_audio"], meta["n_classes"],
                              forest=f)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed checkpoint: {exc}") from exc
    raise ParseError(f"unknown checkpoint kind {kind!r}")


def load_checkpoint(path) -> VideoModel | AudioModel:
    text = read_text(path, "checkpoint")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return model_from_dict(obj)
