import json

import numpy as np
import pytest

from conftest import checkpoint_as_version
from smallclip.audio import train_audio_model
from smallclip.checkpoint import (checkpoint_dict, load_checkpoint,
                                  model_from_dict, save_checkpoint)
from smallclip.config import VIDEO_HEADS, TrainConfig
from smallclip.errors import ContractError, ParseError
from smallclip.synth import SynthConfig, generate_synthetic
from smallclip.video import train_video_model


def small_dataset(seed=0):
    cfg = SynthConfig(train_per_class=4, val_per_class=2, test_per_class=2,
                      n_classes=3, d_feature=5, d_audio=6, frames_min=2,
                      frames_max=5, margin=5.0, noise=0.2)
    return generate_synthetic(cfg, seed)


@pytest.mark.parametrize("head", ["avg-pool", "weighted-avg-pool", "lstm"])
def test_video_checkpoint_round_trip(tmp_path, head):
    ds = small_dataset()
    cfg = TrainConfig(head=head, epochs=2, n=4, lstm_hidden=8)
    model, _ = train_video_model(ds, cfg, seed=0)
    path = tmp_path / "video.json"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.kind == model.kind
    for p, q in zip(model.params(), back.params()):
        assert p.name == q.name
        assert np.array_equal(p.values, q.values)  # json repr is bit-exact
    for clip in ds.split("test"):
        assert np.array_equal(model.predict(clip),
                              back.predict(clip))


def test_audio_mlp_checkpoint_round_trip(tmp_path):
    ds = small_dataset(seed=1)
    model, _ = train_audio_model(ds, TrainConfig(model="mlp", epochs=3,
                                                 hidden=8), seed=0)
    path = tmp_path / "mlp.json"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert np.array_equal(back.mlp.bn.running_mean, model.mlp.bn.running_mean)
    assert np.array_equal(back.mlp.bn.running_var, model.mlp.bn.running_var)
    for clip in ds.split("test"):
        assert np.array_equal(model.predict(clip), back.predict(clip))


def test_audio_forest_checkpoint_round_trip(tmp_path):
    ds = small_dataset(seed=2)
    model, _ = train_audio_model(ds, TrainConfig(model="forest", n_trees=5),
                                 seed=0)
    path = tmp_path / "forest.json"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert len(back.forest.trees) == 5
    for clip in ds.split("test"):
        assert np.array_equal(model.predict(clip), back.predict(clip))


def test_checkpoint_file_is_versioned_json(tmp_path):
    ds = small_dataset(seed=3)
    model, _ = train_audio_model(ds, TrainConfig(model="forest", n_trees=2),
                                 seed=0)
    path = tmp_path / "c.json"
    save_checkpoint(model, path)
    obj = json.loads(path.read_text())
    assert obj["format"] == "smallclip-checkpoint"
    assert obj["version"] == 2
    assert obj["kind"] == "audio-forest"
    # re-serializing the in-memory dict reproduces the file exactly
    assert json.dumps(checkpoint_dict(model)) + "\n" == path.read_text()


def _trained(kind):
    """A small trained model of ``kind``: a video head, ``mlp``,
    ``mlp-pretrained`` or ``forest``; and its test clips."""
    ds = small_dataset(seed=6)
    if kind in VIDEO_HEADS:
        cfg = TrainConfig(head=kind, epochs=2, n=4, lstm_hidden=8)
        return train_video_model(ds, cfg, seed=0)[0], ds.split("test")
    pretrain = small_dataset(seed=7) if kind == "mlp-pretrained" else None
    cfg = (TrainConfig(model="forest", n_trees=4) if kind == "forest" else
           TrainConfig(model="mlp", epochs=2, hidden=8, pretrain_epochs=2))
    model, _ = train_audio_model(ds, cfg, seed=0, pretrain=pretrain)
    return model, ds.split("test")


@pytest.mark.parametrize("kind", [*VIDEO_HEADS, "mlp", "mlp-pretrained",
                                  "forest"])
def test_version1_file_predicts_as_version2(tmp_path, kind):
    model, clips = _trained(kind)
    paths = {}
    for version in (1, 2):
        paths[version] = tmp_path / f"v{version}.json"
        obj = checkpoint_as_version(checkpoint_dict(model), version)
        paths[version].write_text(json.dumps(obj) + "\n")
    assert json.loads(paths[2].read_text()) == checkpoint_dict(model)
    v1, v2 = (load_checkpoint(paths[version]) for version in (1, 2))
    expected = model.predict_batch(clips)
    assert np.array_equal(v1.predict_batch(clips), expected)
    assert np.array_equal(v2.predict_batch(clips), expected)


@pytest.mark.parametrize("version", [True, 1.0, "2", None, 0, 3])
def test_checkpoint_version_must_be_a_known_integer(version):
    ds = small_dataset(seed=3)
    model, _ = train_audio_model(ds, TrainConfig(model="forest", n_trees=2),
                                 seed=0)
    obj = dict(checkpoint_dict(model), version=version)
    message = ("unsupported checkpoint version" if type(version) is int
               else "malformed checkpoint: version must be an integer")
    with pytest.raises(ParseError, match=message):
        model_from_dict(obj)


def test_malformed_checkpoints_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_checkpoint(p)
    # more digits than Python converts to an int
    p.write_text('{"format": "smallclip-checkpoint", "version": '
                 + "1" * 5000 + "}")
    with pytest.raises(ParseError, match=r"invalid JSON: Exceeds"):
        load_checkpoint(p)
    with pytest.raises(ParseError):
        load_checkpoint(tmp_path / "absent.json")
    with pytest.raises(ParseError):
        model_from_dict({"format": "something-else"})
    with pytest.raises(ParseError):
        model_from_dict({"format": "smallclip-checkpoint", "version": 99})
    with pytest.raises(ParseError, match="kind"):
        model_from_dict({"format": "smallclip-checkpoint", "version": 1,
                         "kind": "tarot"})


def test_missing_and_misshapen_params_rejected(tmp_path):
    ds = small_dataset(seed=4)
    model, _ = train_video_model(ds, TrainConfig(head="avg-pool", epochs=1,
                                                 n=3), seed=0)
    obj = checkpoint_as_version(checkpoint_dict(model), 1)
    name = next(iter(obj["params"]))

    broken = json.loads(json.dumps(obj))
    del broken["params"][name]
    with pytest.raises(ParseError, match="missing parameter"):
        model_from_dict(broken)

    broken = json.loads(json.dumps(obj))
    broken["params"][name]["shape"] = [1, 1]
    broken["params"][name]["data"] = [0.0]
    with pytest.raises(ParseError, match="shape"):
        model_from_dict(broken)

    # a record must hold as many values as its own shape asks for
    for shape, pop, message in (([-1], 0, "nonnegative integers"),
                                (obj["params"][name]["shape"], 1,
                                 "data must be a list of")):
        broken = json.loads(json.dumps(obj))
        broken["params"][name]["shape"] = shape
        del broken["params"][name]["data"][:pop]
        with pytest.raises(ParseError, match=f"{name!r}: .*{message}"):
            model_from_dict(broken)


def _drop_last_threshold(tree):
    tree["threshold"]["data"].pop()
    tree["threshold"]["shape"] = [len(tree["threshold"]["data"])]


def _widen_hist(tree):
    n, c = tree["hist"]["shape"]
    tree["hist"]["shape"] = [n, c + 1]
    tree["hist"]["data"] = [1] * (n * (c + 1))


TREE_FAULTS = pytest.mark.parametrize("break_tree, message", [
    (_drop_last_threshold, "one length"),
    (_widen_hist, "hist has shape"),
    (lambda tree: tree["feature"]["data"].__setitem__(0, -2), "feature"),
    (lambda tree: tree["hist"]["data"].__setitem__(0, -1), "nonnegative"),
], ids=["short-threshold", "wide-hist", "feature-below-leaf", "negative-hist"])


def _broken_forest(break_tree, version):
    """A three-tree forest checkpoint in ``version`` whose tree 2 is edited
    by ``break_tree`` in its version-1 form."""
    ds = small_dataset(seed=5)
    model, _ = train_audio_model(ds, TrainConfig(model="forest", n_trees=3),
                                 seed=0)
    obj = checkpoint_as_version(checkpoint_dict(model), 1)
    break_tree(obj["extra"]["trees"][2])
    return checkpoint_as_version(obj, version)


@TREE_FAULTS
def test_malformed_forest_trees_rejected(break_tree, message):
    obj = _broken_forest(break_tree, 1)
    with pytest.raises(ParseError, match=f"tree 2: .*{message}"):
        model_from_dict(obj)
    obj["extra"]["trees"] = []
    with pytest.raises(ParseError, match="no trees"):
        model_from_dict(obj)


@TREE_FAULTS
def test_malformed_version2_forest_trees_rejected(break_tree, message):
    with pytest.raises(ParseError, match=f"tree 2: .*{message}"):
        model_from_dict(_broken_forest(break_tree, 2))


def test_unknown_object_not_checkpointable():
    with pytest.raises(ContractError):
        checkpoint_dict(object())
