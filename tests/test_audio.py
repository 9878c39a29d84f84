import numpy as np
import pytest

from smallclip.audio import AudioModel, train_audio_model
from smallclip.config import TrainConfig
from smallclip.data import argmax_lowest, build_dataset
from smallclip.errors import ContractError, TrainingError
from smallclip.nn import MLPHead
from smallclip.synth import SynthConfig, generate_synthetic

from conftest import make_clip


def audio_dataset(seed=0, margin=6.0, noise=0.3, centroid_seed=None):
    cfg = SynthConfig(train_per_class=6, val_per_class=3, test_per_class=2,
                      d_feature=6, d_audio=10, margin=margin, noise=noise,
                      frames_min=3, frames_max=6, centroid_seed=centroid_seed)
    return generate_synthetic(cfg, seed)


def val_accuracy(model, ds):
    val = [c for c in ds.clips if c.split == "val"]
    hits = [argmax_lowest(model.predict(c)) == c.label for c in val]
    return np.mean(hits)


def test_mlp_learns_separable_audio():
    ds = audio_dataset()
    cfg = TrainConfig(model="mlp", epochs=20, hidden=32)
    model, log = train_audio_model(ds, cfg, seed=0)
    assert val_accuracy(model, ds) >= 0.95
    assert log["val_accuracy"] >= 0.95
    assert len(log["train_loss"]) == 20


def test_training_loss_decreases():
    ds = audio_dataset(seed=9)
    cfg = TrainConfig(model="mlp", epochs=15, hidden=32)
    _, log = train_audio_model(ds, cfg, seed=0)
    losses = log["train_loss"]
    assert losses[-1] < losses[0]


def test_forest_learns_separable_audio():
    ds = audio_dataset(seed=1)
    cfg = TrainConfig(model="forest", n_trees=30)
    model, log = train_audio_model(ds, cfg, seed=0)
    assert val_accuracy(model, ds) >= 0.9
    assert model.kind == "forest"
    assert log["n_trees"] == 30
    assert log["train_accuracy"] >= 0.99


def test_training_determinism():
    ds = audio_dataset(seed=2)
    cfg = TrainConfig(model="mlp", epochs=6, hidden=16)
    m1, log1 = train_audio_model(ds, cfg, seed=5)
    m2, log2 = train_audio_model(ds, cfg, seed=5)
    for p, q in zip(m1.mlp.params(), m2.mlp.params()):
        assert np.array_equal(p.values, q.values)
    assert log1 == log2
    m3, _ = train_audio_model(ds, cfg, seed=6)
    assert any(not np.array_equal(p.values, q.values)
               for p, q in zip(m1.mlp.params(), m3.mlp.params()))


def test_pretrain_then_finetune_not_worse():
    # paired seeds; warm start on same class geometry should not hurt on avg
    deltas = []
    for seed in range(6):
        pre = audio_dataset(seed=100 + seed, margin=4.0, noise=0.8,
                            centroid_seed=seed)
        ds = audio_dataset(seed=seed, margin=2.0, noise=1.2)
        cfg = TrainConfig(model="mlp", epochs=10, hidden=24,
                          pretrain_epochs=10)
        warm, _ = train_audio_model(ds, cfg, seed=seed, pretrain=pre)
        cold_cfg = TrainConfig(model="mlp", epochs=10, hidden=24)
        cold, _ = train_audio_model(ds, cold_cfg, seed=seed)
        deltas.append(val_accuracy(warm, ds) - val_accuracy(cold, ds))
    assert np.mean(deltas) >= -0.01


def test_finetune_shrinks_learning_rate():
    ds = audio_dataset(seed=3)
    pre = audio_dataset(seed=30)
    cfg = TrainConfig(model="mlp", epochs=3, hidden=8, lr=0.02,
                      pretrain_epochs=2, finetune_lr_ratio=0.1)
    _, log = train_audio_model(ds, cfg, seed=0, pretrain=pre)
    assert log["lr"] == pytest.approx(0.002)
    assert len(log["pretrain_loss"]) == 2
    assert len(log["train_loss"]) == 3


def test_zero_output_weights_give_uniform():
    mlp = MLPHead(5, 8, 7, dropout=0.0, rng=np.random.default_rng(0))
    mlp.out_layer.W.values[:] = 0.0
    mlp.out_layer.b.values[:] = 0.0
    model = AudioModel("mlp", 5, 7, mlp=mlp)
    clip = make_clip(np.random.default_rng(1), "c0", d_audio=5)
    probs = model.predict(clip)
    assert np.allclose(probs, np.full(7, 1 / 7), atol=1e-12)


def test_missing_audio_features_rejected():
    ds = audio_dataset(seed=4)
    model, _ = train_audio_model(ds, TrainConfig(model="forest", n_trees=3),
                                 seed=0)
    clip = make_clip(np.random.default_rng(0), "noaudio")
    assert clip.audio is None
    with pytest.raises(ContractError, match="noaudio"):
        model.predict(clip)


def test_audio_dim_mismatch_rejected():
    ds = audio_dataset(seed=5)
    model, _ = train_audio_model(ds, TrainConfig(model="forest", n_trees=3),
                                 seed=0)
    clip = make_clip(np.random.default_rng(0), "thin", d_audio=4)
    with pytest.raises(ContractError):
        model.predict(clip)


def test_forest_with_pretrain_rejected():
    ds = audio_dataset(seed=6)
    cfg = TrainConfig(model="forest", pretrain_epochs=5)
    with pytest.raises(ContractError):
        train_audio_model(ds, cfg, seed=0, pretrain=ds)


def test_dataset_without_audio_rejected():
    rng = np.random.default_rng(0)
    clips = [make_clip(rng, f"c{i}", label=i % 2) for i in range(8)]
    ds = build_dataset(clips)
    with pytest.raises(TrainingError):
        train_audio_model(ds, TrainConfig(model="mlp", epochs=1), seed=0)


def test_prediction_is_valid_distribution():
    ds = audio_dataset(seed=7)
    for kind in ("mlp", "forest"):
        cfg = TrainConfig(model=kind, epochs=3, n_trees=5)
        model, _ = train_audio_model(ds, cfg, seed=0)
        clip = next(c for c in ds.clips if c.split == "test")
        probs = model.predict(clip)
        assert probs.shape == (7,)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("kind", ["mlp", "forest"])
def test_predict_batch_matches_one_row_calls(kind):
    ds = audio_dataset(seed=8)
    cfg = TrainConfig(model=kind, epochs=3, hidden=16, n_trees=7)
    model, _ = train_audio_model(ds, cfg, seed=0)
    batch = model.predict_batch(ds.clips)
    rows = np.stack([model.predict(c) for c in ds.clips])
    assert batch.shape == (len(ds.clips), 7)
    if kind == "forest":
        assert np.array_equal(batch, rows)
    np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-12)
    assert np.array_equal(batch.argmax(axis=1), rows.argmax(axis=1))
    assert model.predict_batch([]).shape == (0, 7)


def test_predict_batch_names_the_bad_clip():
    ds = audio_dataset(seed=10)
    model, _ = train_audio_model(ds, TrainConfig(model="mlp", epochs=1),
                                 seed=0)
    rng = np.random.default_rng(0)
    good = ds.clips[:2]
    with pytest.raises(ContractError, match="clip noaudio has no audio"):
        model.predict_batch(good + [make_clip(rng, "noaudio")])
    with pytest.raises(ContractError, match="clip thin: audio dim 4"):
        model.predict_batch(good + [make_clip(rng, "thin", d_audio=4)])
