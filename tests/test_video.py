import numpy as np
import pytest

from smallclip.config import VIDEO_HEADS, TrainConfig
from smallclip.data import Clip
from smallclip.errors import ContractError, TrainingError
from smallclip.gradcheck import grad_check
from smallclip.nn import Linear, ParamTensor, lstm_forward, sigmoid, softmax
from smallclip.synth import SynthConfig, generate_synthetic
from smallclip import video as video_module
from smallclip.video import (VideoModel, frame_score, pool_average,
                             pool_weighted, predict_score_mean, predict_video,
                             predict_stacked, select_frames, selected_frames,
                             stacked_avg_pool_loss, train_video_model,
                             train_video_models)

from conftest import make_clip


def clip_with_scores(per_frame_scores, n_classes=7, d_feature=4):
    """Clip whose frame_score sequence equals the given list."""
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


def test_frame_score_is_max():
    clip = clip_with_scores([0.5])
    clip.scores[0] = [0.1, 0.7, 0.2, 0, 0, 0, 0]
    assert frame_score(clip.frame(0)) == 0.7
    clip.scores[0] = np.full(7, 1 / 7)
    assert frame_score(clip.frame(0)) == 1 / 7
    clip.scores[0] = [-2, -1, -3, -4, -5, -6, -7]
    assert frame_score(clip.frame(0)) == -1


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
    sel = select_frames(clip_with_scores([0.1] * 4, d_feature=5), 4)
    sel.features[:] = r
    assert np.allclose(pool_average(sel), r, atol=1e-12)
    sel2 = select_frames(clip_with_scores([0.1, 0.1], d_feature=5), 2)
    sel2.features[0] = r
    sel2.features[1] = -r
    assert np.allclose(pool_average(sel2), 0.0, atol=1e-12)
    m = rng.standard_normal((4, 3))
    sel3 = select_frames(clip_with_scores([0.1] * 4, d_feature=3), 4)
    sel3.features[:] = m
    assert np.allclose(pool_average(sel3), m.sum(axis=0) / 4)


def test_pool_weighted_zero_regressor_is_average():
    rng = np.random.default_rng(5)
    clip = clip_with_scores(rng.random(8).tolist(), d_feature=6)
    sel = select_frames(clip, 8)
    reg = Linear(2, 1)  # zero-initialized without an rng
    pooled, w = pool_weighted(sel, reg)
    assert np.allclose(w, 0.5)
    assert np.allclose(pooled, pool_average(sel), atol=1e-12)


def test_pool_weighted_saturated_picks_one_frame():
    clip = clip_with_scores([0.1, 0.2, 0.3], d_feature=4)
    clip.av[:] = [[-1, 0], [-1, 0], [1, 0]]
    sel = select_frames(clip, 3)
    reg = Linear(2, 1)
    reg.W.values[:] = [[30.0, 0.0]]  # w ~ 1 for av=(1,0), ~ 0 otherwise
    pooled, w = pool_weighted(sel, reg)
    assert np.allclose(pooled, clip.features[2], atol=1e-6)
    assert w[2] > 0.999 and max(w[0], w[1]) < 1e-9


def test_pool_weighted_weights_match_formula():
    rng = np.random.default_rng(9)
    clip = clip_with_scores(rng.random(5).tolist(), d_feature=3)
    sel = select_frames(clip, 5)
    reg = Linear(2, 1, rng=rng)
    pooled, w = pool_weighted(sel, reg)
    z = sel.av @ reg.W.values[0] + reg.b.values[0]
    assert np.allclose(w, sigmoid(z))
    assert np.allclose(pooled, (w @ sel.features) / w.sum())


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
    assert np.allclose(predict_video(model, clip), expected, atol=1e-12)


def test_predict_video_weighted_zero_reduces_to_avg():
    rng = np.random.default_rng(4)
    avg = VideoModel("avg-pool", 4, 6, 7, rng=rng)
    weighted = VideoModel("weighted-avg-pool", 4, 6, 7)
    weighted.classifier.W.values = avg.classifier.W.values.copy()
    weighted.classifier.b.values = avg.classifier.b.values.copy()
    clip = make_clip(np.random.default_rng(8), "x", L=9, d_feature=6)
    assert np.allclose(predict_video(weighted, clip),
                       predict_video(avg, clip), atol=1e-12)


def test_predict_video_lstm_matches_unrolled():
    rng = np.random.default_rng(6)
    model = VideoModel("lstm", 16, 5, 7, lstm_hidden=8, rng=rng)
    clip = make_clip(np.random.default_rng(1), "x", L=1, d_feature=5)
    from smallclip.nn import lstm_step
    state = (np.zeros(8), np.zeros(8))
    for _ in range(16):  # n=16 selections of the single frame
        state, _ = lstm_step(model.lstm, state, clip.features[0])
    expected = softmax(model.classifier.forward(state[0])[0])
    assert np.allclose(predict_video(model, clip), expected, atol=1e-10)


def test_predict_video_outputs_valid_scores():
    ds = easy_dataset()
    clip = ds.clips[0]
    rng = np.random.default_rng(0)
    for head in ("score-mean", "avg-pool", "weighted-avg-pool", "lstm"):
        model = VideoModel(head, 8, ds.d_feature, ds.n_classes,
                           lstm_hidden=8, rng=rng)
        p = predict_video(model, clip)
        assert p.shape == (7,)
        assert np.all(p >= 0) and abs(p.sum() - 1) < 1e-9


def test_predict_video_dimension_mismatch():
    model = VideoModel("avg-pool", 4, 10, 7)
    clip = clip_with_scores([0.1], d_feature=6)
    with pytest.raises(ContractError):
        predict_video(model, clip)


def one_clip_reference(model, clip):
    """Class probabilities from the single-clip head math."""
    if model.kind == "score-mean":
        return predict_score_mean(clip, model.score_mode)
    sel = select_frames(clip, model.n)
    if model.kind == "avg-pool":
        pooled = pool_average(sel)
    elif model.kind == "weighted-avg-pool":
        pooled, _ = pool_weighted(sel, model.regressor)
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
    logits, (_, caches, _) = model.forward_batch(F, AV)
    free, (_, no_caches, _) = model.forward_batch(F, AV, keep_cache=False)
    np.testing.assert_array_equal(free, logits)
    assert len(caches) == 4 and no_caches == []


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


def _train_alone_per_model(ds, cfg, seed):
    """Reference: one avg-pool head trained through the per-model
    ``forward_batch``/``backward_batch`` path, as before stacking."""
    train = [c for c in ds.split("train") if c.label is not None]
    val = [c for c in ds.split("val") if c.label is not None]
    F, AV = video_module._stack_selected(train, cfg.n)
    val_batch = (*video_module._stack_selected(val, cfg.n),
                 np.array([c.label for c in val]))
    rng = np.random.default_rng([seed, 0x71D])
    model = VideoModel(cfg.head, cfg.n, ds.d_feature, ds.n_classes, rng=rng)
    log = video_module._train_one(model, rng, seed, F, AV,
                                  np.array([c.label for c in train]),
                                  val_batch, cfg)
    return model, log


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
    check = video_module._check_stack_finite
    check(4, [7, 8, 9], np.ones(3), (W, b))  # all finite: no error
    with pytest.raises(TrainingError,
                       match=r"non-finite loss at epoch 4 .*seed 9;"):
        check(4, [7, 8, 9], np.array([1.0, 2.0, np.nan]), (W, b))
    b.grad[1, 0] = np.inf
    with pytest.raises(TrainingError,
                       match=r"non-finite gradient at epoch 2 .*seed 8;"):
        check(2, [7, 8, 9], np.array([1.0, 2.0, np.nan]), (W, b))
