import numpy as np
import pytest

from smallclip import audio as audio_module
from smallclip.audio import AudioModel, train_audio_model, train_audio_models
from smallclip.config import TrainConfig
from smallclip.data import build_dataset
from smallclip.errors import ContractError, TrainingError
from smallclip.nn import TRAIN, MLPHead, softmax_cross_entropy_batch
from smallclip.optim import make_optimizer
from smallclip.synth import SynthConfig, generate_synthetic

from conftest import make_clip


def audio_dataset(seed=0, margin=6.0, noise=0.3, centroid_seed=None):
    cfg = SynthConfig(train_per_class=6, val_per_class=3, test_per_class=2,
                      d_feature=6, d_audio=10, margin=margin, noise=noise,
                      frames_min=3, frames_max=6, centroid_seed=centroid_seed)
    return generate_synthetic(cfg, seed)


def val_accuracy(model, ds):
    """Accuracy of ``predict_batch`` on the labeled val clips with audio;
    None when there are none."""
    val = [c for c in ds.labeled("val") if c.audio is not None]
    if not val:
        return None
    pred = model.predict_batch(val).argmax(axis=1)
    return int(np.sum(pred == [c.label for c in val])) / len(val)


def test_mlp_learns_separable_audio():
    ds = audio_dataset()
    cfg = TrainConfig(model="mlp", epochs=20, hidden=32)
    model, log = train_audio_model(ds, cfg, seed=0)
    assert val_accuracy(model, ds) >= 0.95
    assert len(log["train_loss"]) == 20
    assert set(log) == {"pretrain_loss", "train_loss", "lr"}  # no split scored


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
    assert set(log) == {"train_accuracy", "n_trees"}  # no split scored


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


def _run_epochs(mlp, X, y, epochs, lr, config, rng, phase):
    """Reference: the MLP's own epoch loop before the shared
    ``optim.train_minibatches`` (it checked the loss only, named no seed)."""
    opt = make_optimizer(mlp.params(), config.optimizer, lr=lr,
                         momentum=config.momentum)
    n = X.shape[0]
    losses = []
    for epoch in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            batch = perm[start:start + config.batch_size]
            logits, cache = mlp.forward(X[batch], mode=TRAIN, rng=rng)
            loss, dlogits, _ = softmax_cross_entropy_batch(logits, y[batch])
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss in {phase} epoch "
                                    f"{epoch}; try a lower lr")
            mlp.backward(cache, dlogits)
            opt.step()
            total += loss * batch.size
        losses.append(total / n)
    return losses


def _train_mlp_reference(ds, config, seed, pretrain=None):
    """Reference: ``train_audio_mlp`` running ``_run_epochs`` per phase."""
    X, y = audio_module._audio_matrix(ds.labeled("train", "audio"))
    rng = np.random.default_rng([seed, 0xA0D])
    mlp = MLPHead(ds.d_audio, config.hidden, ds.n_classes,
                  dropout=config.dropout, rng=rng, name="audio")
    log = {"pretrain_loss": [], "train_loss": [], "lr": config.lr}
    lr = config.lr
    if pretrain is not None:
        Xp, yp = audio_module._audio_matrix(
            pretrain.labeled(modality="audio"))
        log["pretrain_loss"] = _run_epochs(
            mlp, Xp, yp, config.pretrain_epochs or config.epochs, lr, config,
            rng, "pretraining")
        lr = config.lr * config.finetune_lr_ratio
        log["lr"] = lr
    log["train_loss"] = _run_epochs(mlp, X, y, config.epochs, lr, config,
                                    rng, "training")
    return AudioModel("mlp", ds.d_audio, ds.n_classes, mlp=mlp), log


@pytest.mark.parametrize("pretrained", [False, True])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_mlp_matches_per_phase_reference(optimizer, pretrained):
    # 42 train and 63 pretraining clips at batch size 16 end on short
    # batches; dropout makes every step draw from the member's rng. Members
    # of a stack of 3 equal the same members trained as stacks of one and
    # trained by the per-phase reference loop.
    ds = audio_dataset(seed=11)
    pre = audio_dataset(seed=12, centroid_seed=3) if pretrained else None
    cfg = TrainConfig(model="mlp", epochs=3, hidden=12, dropout=0.3,
                      optimizer=optimizer, lr=0.05, pretrain_epochs=2)
    seeds = (0, 5, 9)
    for seed, (model, log) in zip(
            seeds, train_audio_models(ds, cfg, seeds, pretrain=pre)):
        for ref, ref_log in (train_audio_model(ds, cfg, seed, pretrain=pre),
                             _train_mlp_reference(ds, cfg, seed,
                                                  pretrain=pre)):
            for p, q in zip(model.params(), ref.params(), strict=True):
                assert p.name == q.name
                assert np.array_equal(p.values, q.values)
            assert np.array_equal(model.mlp.bn.running_mean,
                                  ref.mlp.bn.running_mean)
            assert np.array_equal(model.mlp.bn.running_var,
                                  ref.mlp.bn.running_var)
            assert log == ref_log
        assert len(log["pretrain_loss"]) == (2 if pretrained else 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("pretrained", [False, True])
def test_nonfinite_mlp_run_names_phase_epoch_and_seed(pretrained):
    ds = audio_dataset(seed=13)
    phase = "pretraining" if pretrained else "training"
    cfg = TrainConfig(model="mlp", epochs=3, hidden=8, optimizer="sgd",
                      lr=1e100)
    with pytest.raises(TrainingError,
                       match=rf"^non-finite loss at {phase} epoch 0 in the "
                             r"member with seed 7; try a lower lr$"):
        train_audio_model(ds, cfg, seed=7, pretrain=ds if pretrained else None)
    with pytest.raises(TrainingError, match=rf"{phase} epoch 0 .*seed 4;"):
        train_audio_models(ds, cfg, [4, 7],
                           pretrain=ds if pretrained else None)
