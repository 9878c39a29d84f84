import numpy as np
import pytest

from smallclip.config import VIDEO_HEADS, TrainConfig
from smallclip.data import Clip
from smallclip.errors import ContractError, TrainingError
from smallclip.gradcheck import grad_check
from smallclip.nn import (Linear, ParamTensor, lstm_forward, sigmoid, softmax,
                          softmax_cross_entropy_batch)
from smallclip.optim import _check_stack_finite, make_optimizer
from smallclip.synth import SynthConfig, generate_synthetic
from smallclip import video as video_module
from smallclip.video import (VideoModel, pool_average, pool_weighted,
                             predict_score_mean, predict_stacked,
                             select_frames, selected_frames,
                             stacked_avg_pool_loss, train_video_model,
                             train_video_models)

from conftest import lstm_step, make_clip


def clip_with_scores(per_frame_scores, n_classes=7, d_feature=4):
    """Clip whose class-0 scores are the given list and whose other class
    scores are 0, so a nonnegative list is each frame's max class score."""
    L = len(per_frame_scores)
    scores = np.zeros((L, n_classes))
    scores[:, 0] = per_frame_scores
    rng = np.random.default_rng(0)
    return Clip("c", "train", rng.standard_normal((L, d_feature)), scores,
                rng.uniform(-1, 1, (L, 2)), label=0)


def oracle_select(per_frame, L, n):
    """Brute-force chunk rule: argmax per chunk, duplication when empty."""
    out = []
    for i in range(n):
        lo, hi = (i * L) // n, ((i + 1) * L) // n
        if lo < hi:
            best = lo
            for j in range(lo, hi):
                if per_frame[j] > per_frame[best]:
                    best = j
            out.append(best)
        else:
            out.append(min(lo, L - 1))
    return out


def single_clip_pool_average(features):
    """Reference: mean of one clip's (n, D) selected frame features."""
    return features.mean(axis=0)


def single_clip_pool_weighted(features, av, regressor):
    """Reference: one clip's weighted mean with weights sigmoid(av @ a + b);
    returns (pooled, weights)."""
    w = sigmoid(av @ regressor.W.values[0] + regressor.b.values[0])
    return (w @ features) / w.sum(), w


def test_frame_score_is_max():
    # a frame's score is its max class score, in whatever column it sits;
    # chunks of two frames: (0, 1), (2, 3), (4, 5)
    clip = clip_with_scores([0.6, 0.1, 0.1, 0.1, -2.0, -1.5])
    clip.scores[1] = [0.1, 0.7, 0.2, 0, 0, 0, 0]      # 0.7 beats 0.6
    clip.scores[2] = np.full(7, 1 / 7)                # 1/7 beats 0.1
    clip.scores[4] = [-2, -1, -3, -4, -5, -6, -7]     # -1 beats -1.5
    clip.scores[5] = [-1.5, -3, -4, -5, -6, -7, -8]
    assert select_frames(clip, 3).indices.tolist() == [1, 2, 4]


def test_select_frames_documented_cases():
    sel = select_frames(clip_with_scores([0.2, 0.9, 0.3, 0.5]), 2)
    assert sel.indices.tolist() == [1, 3]
    # L == n keeps every frame whatever the scores say
    sel = select_frames(clip_with_scores([0.9, 0.1, 0.5]), 3)
    assert sel.indices.tolist() == [0, 1, 2]
    # short clip duplicates via the empty-chunk rule
    sel = select_frames(clip_with_scores([0.3, 0.2, 0.1]), 6)
    assert sel.indices.tolist() == [0, 0, 1, 1, 2, 2]


def test_select_frames_rows_carry_chosen_frames():
    clip = clip_with_scores([0.2, 0.9, 0.3, 0.5])
    sel = select_frames(clip, 2)
    assert np.array_equal(sel.features, clip.features[[1, 3]])
    assert np.array_equal(sel.av, clip.av[[1, 3]])


def test_select_frames_ties_take_lowest_index():
    sel = select_frames(clip_with_scores([0.5, 0.5, 0.5, 0.5]), 2)
    assert sel.indices.tolist() == [0, 2]


def test_select_frames_oracle_sweep():
    rng = np.random.default_rng(42)
    for _ in range(300):
        L = int(rng.integers(1, 41))
        n = int(rng.integers(1, 21))
        per_frame = rng.random(L)
        clip = clip_with_scores(per_frame)
        sel = select_frames(clip, n)
        assert sel.indices.tolist() == oracle_select(per_frame, L, n)
        assert sel.indices.shape == (n,)
        assert np.all(np.diff(sel.indices) >= 0)


def test_select_frames_chunk_permutation_keeps_scores():
    rng = np.random.default_rng(3)
    per_frame = rng.random(12)
    n = 4
    base = select_frames(clip_with_scores(per_frame), n)
    # permute within the first chunk [0, 3)
    perm = per_frame.copy()
    perm[[0, 1, 2]] = perm[[2, 0, 1]]
    other = select_frames(clip_with_scores(perm), n)
    assert np.allclose(per_frame[base.indices], perm[other.indices])


def test_select_frames_rejects_bad_n():
    with pytest.raises(ContractError):
        select_frames(clip_with_scores([0.5]), 0)


def test_predict_score_mean_probs():
    clip = clip_with_scores([0.0, 0.0])
    clip.scores[0] = [1, 0, 0, 0, 0, 0, 0]
    clip.scores[1] = [0, 1, 0, 0, 0, 0, 0]
    p = predict_score_mean(clip)
    assert np.allclose(p, [0.5, 0.5, 0, 0, 0, 0, 0])
    assert int(np.argmax(p)) == 0  # tie goes to the lower class


def test_predict_score_mean_single_frame_normalizes():
    clip = clip_with_scores([0.0])
    clip.scores[0] = [0.2, 0.2, 0.1, 0.1, 0.1, 0.2, 0.1]
    p = predict_score_mean(clip)
    assert np.allclose(p, clip.scores[0] / clip.scores[0].sum())
    assert np.isclose(p.sum(), 1.0)


def test_predict_score_mean_identical_frames_idempotent():
    clip = clip_with_scores([0.0] * 4)
    clip.scores[:] = [0.1, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1]
    one = clip_with_scores([0.0])
    one.scores[0] = clip.scores[0]
    assert np.allclose(predict_score_mean(clip), predict_score_mean(one),
                       atol=1e-12)


def test_predict_score_mean_logits_mode():
    clip = clip_with_scores([0.0])
    clip.scores[0] = [-2, -1, -3, -4, -5, -6, -7]
    p = predict_score_mean(clip, score_mode="logits")
    assert np.allclose(p, softmax(clip.scores[0]))
    with pytest.raises(ContractError):
        predict_score_mean(clip)  # negative entries need logits mode


def test_pool_average_cases():
    rng = np.random.default_rng(1)
    r = rng.standard_normal(5)
    # clip 0 repeats r, clip 1 alternates r and -r
    F = np.stack([np.tile(r, (4, 1)), np.stack([r, -r, r, -r])])
    pooled = pool_average(F)
    assert pooled.shape == (2, 5)
    assert np.allclose(pooled[0], r, atol=1e-12)
    assert np.allclose(pooled[1], 0.0, atol=1e-12)
    m = rng.standard_normal((3, 4, 3))
    assert np.allclose(pool_average(m), m.sum(axis=1) / 4)
    for row, clip in zip(pool_average(m), m):
        assert np.array_equal(row, single_clip_pool_average(clip))


def test_pool_weighted_zero_regressor_is_average():
    rng = np.random.default_rng(5)
    F = rng.standard_normal((3, 8, 6))
    AV = rng.uniform(-1, 1, (3, 8, 2))
    reg = Linear(2, 1)  # zero-initialized without an rng
    pooled, w = pool_weighted(F, AV, reg)
    assert w.shape == (3, 8) and np.allclose(w, 0.5)
    assert np.allclose(pooled, pool_average(F), atol=1e-12)


def test_pool_weighted_saturated_picks_one_frame():
    clip = clip_with_scores([0.1, 0.2, 0.3], d_feature=4)
    clip.av[:] = [[-1, 0], [-1, 0], [1, 0]]
    sel = select_frames(clip, 3)
    reg = Linear(2, 1)
    reg.W.values[:] = [[30.0, 0.0]]  # w ~ 1 for av=(1,0), ~ 0 otherwise
    pooled, w = pool_weighted(sel.features[None], sel.av[None], reg)
    assert np.allclose(pooled[0], clip.features[2], atol=1e-6)
    assert w[0, 2] > 0.999 and max(w[0, 0], w[0, 1]) < 1e-9


def test_pool_weighted_weights_match_formula():
    rng = np.random.default_rng(9)
    F = rng.standard_normal((4, 5, 3))
    AV = rng.uniform(-1, 1, (4, 5, 2))
    reg = Linear(2, 1, rng=rng)
    reg.b.values[:] = [0.4]
    pooled, w = pool_weighted(F, AV, reg)
    for i in range(4):
        ref_pooled, ref_w = single_clip_pool_weighted(F[i], AV[i], reg)
        np.testing.assert_allclose(w[i], ref_w, rtol=0, atol=1e-15)
        np.testing.assert_allclose(pooled[i], ref_pooled, rtol=0,
                                   atol=1e-12)


def easy_dataset(seed=1, margin=5.0, **kw):
    cfg = SynthConfig(train_per_class=8, val_per_class=4, margin=margin,
                      **kw)
    return generate_synthetic(cfg, seed=seed)


@pytest.mark.parametrize("head", ["avg-pool", "weighted-avg-pool", "lstm"])
def test_heads_learn_separable_data(head):
    ds = easy_dataset()
    cfg = TrainConfig(head=head, n=8, epochs=12, lstm_hidden=16)
    model, log = train_video_model(ds, cfg, seed=0)
    assert log[-1]["val_accuracy"] >= 0.9
    assert len(log) == cfg.epochs


def test_training_is_deterministic():
    ds = easy_dataset()
    cfg = TrainConfig(head="weighted-avg-pool", n=8, epochs=4)
    m1, log1 = train_video_model(ds, cfg, seed=7)
    m2, log2 = train_video_model(ds, cfg, seed=7)
    for p1, p2 in zip(m1.params(), m2.params()):
        assert np.array_equal(p1.values, p2.values)
    assert log1 == log2
    m3, _ = train_video_model(ds, cfg, seed=8)
    assert any(not np.array_equal(p1.values, p3.values)
               for p1, p3 in zip(m1.params(), m3.params()))


def test_margin_zero_stays_near_chance():
    accs = []
    for seed in range(6):
        ds = easy_dataset(seed=seed, margin=0.0)
        cfg = TrainConfig(head="avg-pool", n=8, epochs=5)
        _, log = train_video_model(ds, cfg, seed=seed)
        accs.append(log[-1]["val_accuracy"])
    assert 1 / 7 - 0.1 <= np.mean(accs) <= 1 / 7 + 0.1


def test_score_mean_head_has_no_params():
    ds = easy_dataset()
    cfg = TrainConfig(head="score-mean")
    model, log = train_video_model(ds, cfg, seed=0)
    assert model.params() == []
    assert log[-1]["val_accuracy"] >= 0.9  # synth scores are informative


def test_empty_train_split_raises():
    ds = easy_dataset()
    val_only = [c for c in ds.clips if c.split == "val"]
    from smallclip.data import build_dataset
    with pytest.raises(TrainingError):
        train_video_model(build_dataset(val_only),
                          TrainConfig(head="avg-pool"), seed=0)


def test_predict_video_identical_frames_avg_pool():
    rng = np.random.default_rng(2)
    model = VideoModel("avg-pool", 4, 6, 7, rng=rng)
    r = rng.standard_normal(6)
    clip = clip_with_scores([0.1] * 4, d_feature=6)
    clip.features[:] = r
    expected = softmax(model.classifier.forward(r)[0])
    assert np.allclose(model.predict(clip), expected, atol=1e-12)


def test_predict_video_weighted_zero_reduces_to_avg():
    rng = np.random.default_rng(4)
    avg = VideoModel("avg-pool", 4, 6, 7, rng=rng)
    weighted = VideoModel("weighted-avg-pool", 4, 6, 7)
    weighted.classifier.W.values = avg.classifier.W.values.copy()
    weighted.classifier.b.values = avg.classifier.b.values.copy()
    clip = make_clip(np.random.default_rng(8), "x", L=9, d_feature=6)
    assert np.allclose(weighted.predict(clip),
                       avg.predict(clip), atol=1e-12)


def test_predict_video_lstm_matches_unrolled():
    rng = np.random.default_rng(6)
    model = VideoModel("lstm", 16, 5, 7, lstm_hidden=8, rng=rng)
    clip = make_clip(np.random.default_rng(1), "x", L=1, d_feature=5)
    state = (np.zeros(8), np.zeros(8))
    for _ in range(16):  # n=16 selections of the single frame
        state, _ = lstm_step(model.lstm, state, clip.features[0])
    expected = softmax(model.classifier.forward(state[0])[0])
    assert np.allclose(model.predict(clip), expected, atol=1e-10)


def test_predict_video_outputs_valid_scores():
    ds = easy_dataset()
    clip = ds.clips[0]
    rng = np.random.default_rng(0)
    for head in ("score-mean", "avg-pool", "weighted-avg-pool", "lstm"):
        model = VideoModel(head, 8, ds.d_feature, ds.n_classes,
                           lstm_hidden=8, rng=rng)
        p = model.predict(clip)
        assert p.shape == (7,)
        assert np.all(p >= 0) and abs(p.sum() - 1) < 1e-9


def test_predict_video_dimension_mismatch():
    model = VideoModel("avg-pool", 4, 10, 7)
    clip = clip_with_scores([0.1], d_feature=6)
    with pytest.raises(ContractError):
        model.predict(clip)


def one_clip_reference(model, clip):
    """Class probabilities from the single-clip head math."""
    if model.kind == "score-mean":
        return predict_score_mean(clip, model.score_mode)
    sel = select_frames(clip, model.n)
    if model.kind == "avg-pool":
        pooled = single_clip_pool_average(sel.features)
    elif model.kind == "weighted-avg-pool":
        pooled, _ = single_clip_pool_weighted(sel.features, sel.av,
                                              model.regressor)
    else:
        pooled = lstm_forward(model.lstm, sel.features[None])[0][0]
    return softmax(model.classifier.forward(pooled)[0])


@pytest.mark.parametrize("head", VIDEO_HEADS)
def test_predict_batch_matches_one_row_calls(head):
    rng = np.random.default_rng(12)
    model = VideoModel(head, 6, 5, 7, lstm_hidden=8, rng=rng)
    if model.regressor is not None:
        model.regressor.W.values[:] = [[1.5, -2.0]]
        model.regressor.b.values[:] = [0.3]
    # lengths below, at and above n = 6, mixed in one batch
    clips = [make_clip(rng, f"c{i}", L=L, d_feature=5)
             for i, L in enumerate([1, 4, 6, 7, 2, 15, 5])]
    batch = model.predict_batch(clips)
    assert batch.shape == (len(clips), 7)
    for other in (np.stack([model.predict(c) for c in clips]),
                  np.stack([one_clip_reference(model, c) for c in clips])):
        np.testing.assert_allclose(batch, other, rtol=0, atol=1e-12)
        assert np.array_equal(batch.argmax(axis=1), other.argmax(axis=1))
    assert model.predict_batch([]).shape == (0, 7)


def test_lstm_inference_forward_keeps_no_caches():
    rng = np.random.default_rng(13)
    model = VideoModel("lstm", 4, 5, 7, lstm_hidden=8, rng=rng)
    F, AV = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 4, 2))
    logits, (_, cache, _) = model.forward_batch(F, AV)
    free, (_, no_cache, _) = model.forward_batch(F, AV, keep_cache=False)
    np.testing.assert_array_equal(free, logits)
    assert cache[1].shape == (4, 3, 32) and no_cache is None


def test_predict_batch_names_the_mismatched_clip():
    rng = np.random.default_rng(14)
    model = VideoModel("avg-pool", 4, 5, 7)
    clips = [make_clip(rng, "fine", d_feature=5),
             make_clip(rng, "wide", d_feature=6),
             make_clip(rng, "also-fine", d_feature=5)]
    with pytest.raises(ContractError, match="clip wide: feature dim 6"):
        model.predict_batch(clips)


def test_selected_frames_computed_once_and_shared(monkeypatch):
    calls = []
    real = video_module.select_frames

    def counting(clip, n=16):
        calls.append((clip.id, n))
        return real(clip, n)

    monkeypatch.setattr(video_module, "select_frames", counting)
    clip = clip_with_scores([0.2, 0.9, 0.3, 0.5])
    first = selected_frames(clip, 2)
    assert selected_frames(clip, 2) is first
    assert selected_frames(clip.with_split("val"), 2) is first
    selected_frames(clip, 3)
    assert calls == [("c", 2), ("c", 3)]
    assert first.indices.tolist() == [1, 3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_names_epoch():
    ds = easy_dataset()
    for c in ds.clips:  # finite but extreme: products overflow to inf
        c.features *= 1e200
    cfg = TrainConfig(head="avg-pool", n=8, epochs=3, optimizer="sgd",
                      lr=0.01)
    with pytest.raises(TrainingError, match="epoch"):
        train_video_model(ds, cfg, seed=0)


@pytest.mark.parametrize("head", ["avg-pool", "weighted-avg-pool", "lstm"])
def test_logged_val_accuracy_matches_predict_batch(head, monkeypatch):
    ds = easy_dataset(seed=3, margin=1.0)
    val = ds.split("val")
    cfg = TrainConfig(head=head, n=4, epochs=3, lstm_hidden=6)
    stacks = []
    real = video_module._stack_selected

    def counting(clips, n):
        stacks.append(len(clips))
        return real(clips, n)

    monkeypatch.setattr(video_module, "_stack_selected", counting)
    _, log = train_video_model(ds, cfg, seed=2)
    # train and val are each stacked once, however many epochs run
    assert stacks == [len(ds.split("train")), len(val)]
    monkeypatch.undo()
    for epochs in (1, 2, 3):
        cfg.epochs = epochs
        model, _ = train_video_model(ds, cfg, seed=2)
        assert log[epochs - 1]["val_accuracy"] == \
            video_module._split_accuracy(model, val)


def _batch_accuracy(model: VideoModel, batch) -> float | None:
    """Accuracy on a pre-stacked ``(F, AV, labels)`` batch, as
    ``_split_accuracy`` computes it (softmax, then argmax); None if empty."""
    if batch is None:
        return None
    F, AV, labels = batch
    logits, _ = model.forward_batch(F, AV, keep_cache=False)
    pred = softmax(logits, axis=1).argmax(axis=1)
    return int(np.sum(pred == labels)) / len(labels)


def _train_one(model, rng, seed, F, AV, y, val_batch, config):
    """Reference: the per-model epoch loop the heads ran before the shared
    ``optim.train_minibatches`` (it checked the loss only)."""
    opt = make_optimizer(model.params(), config.optimizer, lr=config.lr,
                         momentum=config.momentum)
    n_train = len(y)
    log = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n_train)
        total = 0.0
        for start in range(0, n_train, config.batch_size):
            batch = perm[start:start + config.batch_size]
            logits, cache = model.forward_batch(F[batch], AV[batch])
            loss, dlogits, _ = softmax_cross_entropy_batch(logits, y[batch])
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} in the member with "
                    f"seed {seed}; try a lower lr")
            model.backward_batch(cache, dlogits)
            opt.step()
            total += loss * batch.size
        log.append({"epoch": epoch, "train_loss": total / n_train,
                    "val_accuracy": _batch_accuracy(model, val_batch)})
    return log


def _train_alone_per_model(ds, cfg, seed):
    """Reference: one head trained by ``_train_one`` through the per-model
    ``forward_batch``/``backward_batch`` path."""
    train = [c for c in ds.split("train") if c.label is not None]
    val = [c for c in ds.split("val") if c.label is not None]
    F, AV = video_module._stack_selected(train, cfg.n)
    val_batch = (*video_module._stack_selected(val, cfg.n),
                 np.array([c.label for c in val]))
    rng = np.random.default_rng([seed, 0x71D])
    model = VideoModel(cfg.head, cfg.n, ds.d_feature, ds.n_classes,
                       lstm_hidden=cfg.lstm_hidden, rng=rng)
    log = _train_one(model, rng, seed, F, AV,
                     np.array([c.label for c in train]), val_batch, cfg)
    return model, log


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("head", ["weighted-avg-pool", "lstm"])
def test_stack_of_one_matches_per_model_reference(head, optimizer):
    # 35 train clips at batch size 16 end on a 3-row batch
    ds = generate_synthetic(SynthConfig(
        train_per_class=5, val_per_class=3, n_classes=7, margin=2.0,
        noise=0.5, frames_min=3, frames_max=9), seed=4)
    cfg = TrainConfig(head=head, n=6, epochs=3, optimizer=optimizer,
                      momentum=0.9, lr=0.05, lstm_hidden=8)
    seeds = [0, 5, 9]
    for seed, (model, log) in zip(seeds, train_video_models(ds, cfg, seeds)):
        ref, ref_log = _train_alone_per_model(ds, cfg, seed)
        for p, q in zip(model.params(), ref.params(), strict=True):
            assert p.name == q.name
            assert np.array_equal(p.values, q.values)
        assert log == ref_log
        assert len(log) == cfg.epochs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_lstm_run_names_epoch_and_seed():
    ds = easy_dataset()
    cfg = TrainConfig(head="lstm", n=4, epochs=3, lstm_hidden=6,
                      optimizer="sgd", lr=1e100)
    with pytest.raises(TrainingError,
                       match=r"^non-finite loss at epoch 0 in the member "
                             r"with seed 7; try a lower lr$"):
        train_video_models(ds, cfg, [7, 8])


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_avg_pool_stack_matches_members_trained_alone(optimizer):
    # 35 train clips at batch size 16 end on a 3-row batch
    ds = generate_synthetic(SynthConfig(
        train_per_class=5, val_per_class=3, n_classes=7, margin=2.0,
        noise=0.5, frames_min=3, frames_max=9), seed=4)
    cfg = TrainConfig(head="avg-pool", n=6, epochs=3, optimizer=optimizer,
                      momentum=0.9, lr=0.05)
    stack = train_video_models(ds, cfg, range(50))
    assert len(stack) == 50
    for seed, (model, log) in enumerate(stack):
        alone, alone_log = train_video_model(ds, cfg, seed)
        for p, q in zip(model.params(), alone.params()):
            assert p.name == q.name
            assert np.array_equal(p.values, q.values)
        assert log == alone_log
        assert len(log) == cfg.epochs
        assert all(type(e["train_loss"]) is float for e in log)
    for seed in (0, 17, 49):  # the stack equals the per-model math too
        ref, ref_log = _train_alone_per_model(ds, cfg, seed)
        model, log = stack[seed]
        assert np.array_equal(model.classifier.W.values,
                              ref.classifier.W.values)
        assert np.array_equal(model.classifier.b.values,
                              ref.classifier.b.values)
        assert log == ref_log


def test_stacked_avg_pool_loss_gradients():
    rng = np.random.default_rng(21)
    M, B, D, C = 3, 4, 5, 3
    x = rng.standard_normal((M, B, D))
    labels = rng.integers(0, C, size=(M, B))
    W = ParamTensor("W", rng.standard_normal((M, C, D)))
    b = ParamTensor("b", rng.standard_normal((M, C)))

    def loss_fn(compute_grad):
        # grad_check copies the gradient of the first call; the sum's
        # gradient in W[m], b[m] is member m's own
        return float(stacked_avg_pool_loss(x, labels, W, b).sum())

    assert grad_check(loss_fn, [W, b]) < 1e-6


def test_predict_stacked_matches_predict_batch():
    ds = easy_dataset(seed=6)
    cfg = TrainConfig(head="avg-pool", n=5, epochs=2)
    models = [m for m, _ in train_video_models(ds, cfg, [3, 1, 4])]
    probs = predict_stacked(models, ds.clips)
    assert probs.shape == (3, len(ds.clips), ds.n_classes)
    for model, rows in zip(models, probs):
        assert np.array_equal(rows, model.predict_batch(ds.clips))
    lstm = [m for m, _ in train_video_models(
        ds, TrainConfig(head="lstm", n=5, epochs=1, lstm_hidden=4), [0, 1])]
    probs = predict_stacked(lstm, ds.clips)
    for model, rows in zip(lstm, probs):
        assert np.array_equal(rows, model.predict_batch(ds.clips))
    wide = make_clip(np.random.default_rng(0), "wide", d_feature=9)
    with pytest.raises(ContractError, match="clip wide: feature dim 9"):
        predict_stacked(models, [wide])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_in_stack_names_epoch_and_seed():
    ds = easy_dataset()
    for c in ds.clips:  # finite but extreme: products overflow to inf
        c.features *= 1e200
    cfg = TrainConfig(head="avg-pool", n=8, epochs=3, optimizer="sgd",
                      lr=0.01)
    # the first member in stack order is named, not the smallest seed
    with pytest.raises(TrainingError, match=r"epoch 0 .*seed 5;"):
        train_video_models(ds, cfg, [5, 3, 9])


def test_stack_finite_check_names_first_failing_member():
    W = ParamTensor("W", np.zeros((3, 2, 2)))
    b = ParamTensor("b", np.zeros((3, 2)))
    check = _check_stack_finite
    check(4, [7, 8, 9], np.ones(3), (W, b))  # all finite: no error
    with pytest.raises(TrainingError,
                       match=r"non-finite loss at epoch 4 .*seed 9;"):
        check(4, [7, 8, 9], np.array([1.0, 2.0, np.nan]), (W, b))
    b.grad[1, 0] = np.inf
    with pytest.raises(TrainingError,
                       match=r"non-finite gradient at epoch 2 .*seed 8;"):
        check(2, [7, 8, 9], np.array([1.0, 2.0, np.nan]), (W, b))
    with pytest.raises(TrainingError,
                       match=r"^non-finite gradient at pretraining epoch 1 "
                             r"in the member with seed 8; try a lower lr$"):
        check(1, [7, 8, 9], np.ones(3), (W, b), "pretraining")
    alone = ParamTensor("W", np.zeros((2, 2)))  # a stack of one's own shape
    check(0, [3], np.ones(1), [alone])
    alone.grad[1, 1] = np.nan
    with pytest.raises(TrainingError, match=r"gradient at epoch 0 .*seed 3;"):
        check(0, [3], np.ones(1), [alone])
