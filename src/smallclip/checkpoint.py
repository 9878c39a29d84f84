"""Versioned JSON checkpoints for trained models.

Layout:

    {"format": "smallclip-checkpoint", "version": 2,
     "kind": "video" | "audio-mlp" | "audio-forest",
     "meta": {...dims and head/model settings...},
     "params": {"<name>": {"shape": [...], "data": "<base64>"}, ...},
     "extra": {...running stats or forest arrays...}}

In version 2, which ``save_checkpoint`` writes, an array record's ``data``
is the base64 of the array's bytes in C order: little-endian float64 for
parameters, batch-norm statistics and tree thresholds, little-endian int64
for tree features, children and histograms. Version 1 files still load; in
them ``data`` is a flat list of JSON numbers, whose shortest-roundtrip
repr is bit-exact too. The file's ``version`` picks the reader, and each
reader accepts only its own records. Parameter tensors are keyed by their
full name; loading restores values, batch-norm running statistics and the
trees' ``forest.TREE_ARRAYS``, which ``Forest`` checks, not this module.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .audio import AudioModel
from .config import SCORE_MODES, VIDEO_HEADS
from .data import atomic_write_text, quoted, read_text
from .errors import ContractError, ParseError
from .forest import TREE_ARRAYS, Forest, Tree
from .nn import MLPHead
from .video import VideoModel

FORMAT = "smallclip-checkpoint"
VERSION = 2


# `base64` is imported where it is used, so that commands which never save
# or load a checkpoint do not load it: imported with this module, it raised
# the peak RSS of `recipe --preset submission6` by 16-31 KB.


def _arr(a, dtype=np.float64):
    """The version-2 record of array ``a`` stored as ``dtype``."""
    import base64
    raw = np.asarray(a, dtype=np.dtype(dtype).newbyteorder("<")).tobytes()
    return {"shape": list(np.shape(a)),
            "data": base64.b64encode(raw).decode("ascii")}


def _list_values(data, size, dtype):
    """Version 1's ``data``, a flat list of ``size`` JSON numbers (JSON
    integers for an integer ``dtype``): (values, None) or (None, problem)."""
    integer = dtype == np.int64
    if not isinstance(data, list) or len(data) != size:
        return None, f"data must be a list of {size} values"
    if not set(map(type, data)) <= ({int} if integer else {int, float}):
        return None, f"data must hold JSON {'integers' if integer else 'numbers'}"
    try:
        values = np.array(data, dtype=dtype)
        if integer or np.isfinite(values).all():
            return values, None
    except OverflowError:  # an integer beyond the dtype's range
        pass
    return None, "data must be finite and in range"


def _base64_values(data, size, dtype):
    """Version 2's ``data``, the base64 of ``size`` little-endian ``dtype``
    values: (values, None) or (None, problem)."""
    import base64
    if not isinstance(data, str):
        return None, "data must be a base64 string"
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        return None, "data must be valid base64"
    if len(raw) != 8 * size:
        return None, f"data must hold {8 * size} bytes, got {len(raw)}"
    # astype copies: a writable array in native byte order, not a view
    wire = np.dtype(dtype).newbyteorder("<")
    values = np.frombuffer(raw, wire).astype(dtype)
    if dtype == np.int64 or np.isfinite(values).all():
        return values, None
    return None, "data must be finite"


def _unarr(obj, what, version, dtype=np.float64):
    """The array of a ``{"shape": [...], "data": ...}`` record.

    ``shape`` must list nonnegative JSON integers, and ``data`` hold as many
    values in ``version``'s encoding, each finite for a float ``dtype``;
    otherwise a ParseError names ``what``.
    """
    shape, data = ((obj.get("shape"), obj.get("data"))
                   if isinstance(obj, dict) else (None, None))
    if not (isinstance(shape, list) and set(map(type, shape)) <= {int}
            and min(shape, default=0) >= 0):
        problem = "shape must be a list of nonnegative integers"
    else:
        read = _list_values if version == 1 else _base64_values
        values, problem = read(data, math.prod(shape), dtype)
        if problem is None:
            return values.reshape(shape)
    raise ParseError(f"malformed checkpoint: {what}: {problem}")


def _params_dict(params):
    return {p.name: _arr(p.values) for p in params}


def _restore_params(params, blob, version):
    for p in params:
        if p.name not in blob:
            raise ParseError(f"checkpoint is missing parameter {p.name!r}")
        values = _unarr(blob[p.name], f"parameter {p.name!r}", version)
        if values.shape != p.values.shape:
            raise ParseError(f"parameter {p.name!r} has shape "
                             f"{values.shape}, expected {p.values.shape}")
        p.values = values


def _meta(meta, key, ok, expected):
    """``meta[key]``, which ``ok`` must accept (else a ParseError)."""
    if not ok(meta[key]):
        raise ParseError(f"malformed checkpoint: meta {key} must be "
                         f"{expected}, got "
                         f"{quoted(meta[key], spell=json.dumps)}")
    return meta[key]


def _counts(meta, *keys):
    """``meta``'s values at ``keys``, each of which must be an int >= 1."""
    return [_meta(meta, key, lambda v: type(v) is int and v >= 1,
                  "an integer >= 1") for key in keys]


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
                "hidden": mlp.hidden, "dropout": mlp.dropout}
        extra = {"running_mean": _arr(mlp.bn.running_mean),
                 "running_var": _arr(mlp.bn.running_var)}
        return {"format": FORMAT, "version": VERSION, "kind": "audio-mlp",
                "meta": meta, "params": _params_dict(mlp.params()),
                "extra": extra}
    if isinstance(model, AudioModel) and model.kind == "forest":
        f = model.forest
        trees = [{key: _arr(getattr(t, key), dtype)
                  for key, dtype in TREE_ARRAYS.items()} for t in f.trees]
        meta = {"d_audio": model.d_audio, "n_classes": model.n_classes,
                "n_trees": len(f.trees), "seed": f.seed}
        return {"format": FORMAT, "version": VERSION, "kind": "audio-forest",
                "meta": meta, "params": {}, "extra": {"trees": trees}}
    raise ContractError(f"cannot checkpoint object of type {type(model).__name__}")


def save_checkpoint(model, path):
    atomic_write_text(path, json.dumps(checkpoint_dict(model)) + "\n")


def model_from_dict(obj) -> VideoModel | AudioModel:
    if not isinstance(obj, dict) or obj.get("format") != FORMAT:
        raise ParseError("not a model checkpoint")
    version = obj.get("version")
    if type(version) is not int:
        raise ParseError("malformed checkpoint: version must be an integer, "
                         f"got {quoted(version, spell=json.dumps)}")
    if version not in (1, VERSION):
        raise ParseError(f"unsupported checkpoint version {quoted(version)}")
    kind = obj.get("kind")
    meta = obj.get("meta", {})
    try:
        if kind == "video":
            n, d_feature, n_classes, lstm_hidden = _counts(
                meta, "n", "d_feature", "n_classes", "lstm_hidden")
            for key, allowed in (("head", VIDEO_HEADS),
                                 ("score_mode", SCORE_MODES)):
                _meta(meta, key, lambda v: v in allowed,
                      f"one of {', '.join(allowed)}")
            model = VideoModel(meta["head"], n, d_feature, n_classes,
                               score_mode=meta["score_mode"],
                               lstm_hidden=lstm_hidden)
            _restore_params(model.params(), obj["params"], version)
            return model
        if kind == "audio-mlp":
            d_audio, hidden, n_classes = _counts(
                meta, "d_audio", "hidden", "n_classes")
            dropout = _meta(meta, "dropout", lambda v: type(v) in (int, float)
                            and 0 <= v < 1, "a number in [0, 1)")
            mlp = MLPHead(d_audio, hidden, n_classes, dropout=dropout,
                          name="audio")
            _restore_params(mlp.params(), obj["params"], version)
            for name in ("running_mean", "running_var"):
                stat = _unarr(obj["extra"][name], name, version)
                if stat.shape != (hidden,):
                    raise ParseError(f"malformed checkpoint: {name} has "
                                     f"shape {stat.shape}, expected "
                                     f"{(hidden,)}")
                setattr(mlp.bn, name, stat)
            if np.any(mlp.bn.running_var < 0):
                raise ParseError("malformed checkpoint: running_var must "
                                 "be nonnegative")
            return AudioModel("mlp", d_audio, n_classes, mlp=mlp)
        if kind == "audio-forest":
            d_audio, n_classes = _counts(meta, "d_audio", "n_classes")
            seed = _meta(meta, "seed", lambda v: type(v) is int and v >= 0,
                         "an integer >= 0")
            trees = [Tree(**{key: _unarr(t[key], f"tree {i}: {key}", version,
                                         dtype)
                             for key, dtype in TREE_ARRAYS.items()})
                     for i, t in enumerate(obj["extra"]["trees"])]
            f = Forest(trees, n_classes, d_audio, seed)  # checks the trees
            _meta(meta, "n_trees", lambda v: type(v) is int
                  and v == len(trees), f"the number of trees, {len(trees)}")
            return AudioModel("forest", d_audio, n_classes, forest=f)
    except (KeyError, TypeError, ContractError) as exc:
        raise ParseError(f"malformed checkpoint: {exc}") from exc
    raise ParseError(f"unknown checkpoint kind {quoted(kind)}")


def load_checkpoint(path) -> VideoModel | AudioModel:
    text = read_text(path, "checkpoint")
    try:
        obj = json.loads(text)
    except ValueError as exc:  # also an integer too long to read
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return model_from_dict(obj)
