"""Acceptance gate: the eight package-level guarantees, one test each.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run with ``-s``
to see them live; pytest shows the captured line for failures either way).
The guarantees: gradient correctness, frame-selection oracle equivalence,
the weighted-accuracy formula, reduction identities, synthetic end-to-end
learning, ensemble and pretraining trends, the forest overfit property, and
bit-exact determinism of the command line across reruns and --jobs.
"""

import time

import numpy as np

from smallclip.cli import main
from smallclip.config import TrainConfig
from smallclip.data import ClassDistribution, Clip
from smallclip.evaluate import evaluate
from smallclip.fusion import fuse_tables
from smallclip.nn import (Linear, LSTMParams, MLPHead, lstm_forward,
                          lstm_backward, softmax_cross_entropy_batch)
from smallclip.audio import train_audio_model
from smallclip.scores import ScoreTable
from smallclip.synth import SynthConfig, generate_synthetic
from smallclip.video import (VideoModel, pool_average, pool_weighted,
                             select_frames, train_video_model)

from conftest import grad_check


def criterion(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# -- 1: gradient correctness ---------------------------------------------------

def projection_loss(module, x, proj):
    # the input is frozen: backward forms no gradient on it
    def loss_fn(compute_grad):
        out, cache = module.forward(x)
        loss = float((out * proj).sum())
        if compute_grad:
            assert module.backward(cache, proj) is None
        return loss
    return loss_fn


def head_loss(model, f, av, labels):
    # the frame features are frozen: backward forms no gradient on them
    def loss_fn(compute_grad):
        logits, cache = model.forward_batch(f, av)
        loss, dlogits, _ = softmax_cross_entropy_batch(logits, labels)
        if compute_grad:
            assert model.backward_batch(cache, dlogits) is None
        return float(loss)
    return loss_fn


def test_criterion_1_gradient_checks():
    started = time.monotonic()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng([seed, 0xACC])

        lin = Linear(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        worst = max(worst, grad_check(
            projection_loss(lin, x, rng.standard_normal((2, 3))),
            lin.params()))

        mlp = MLPHead(5, 6, 4, dropout=0.0, rng=rng)
        x = rng.standard_normal((3, 5))
        worst = max(worst, grad_check(
            projection_loss(mlp, x, rng.standard_normal((3, 4))),
            mlp.params()))

        # LSTM unrolled over 4 steps, gradient on the final hidden state
        lstm = LSTMParams(3, 4, rng=rng)
        xs = rng.standard_normal((2, 4, 3))  # frozen inputs
        proj = rng.standard_normal((2, 4))

        def lstm_loss(compute_grad):
            h, caches = lstm_forward(lstm, xs)
            if compute_grad:
                assert lstm_backward(lstm, caches, proj) is None
            return float((h * proj).sum())

        worst = max(worst, grad_check(lstm_loss, lstm.params()))

        # full heads, including the weight regressor through weighted pooling
        b, n, d, c = 3, 4, 5, 3
        av = rng.uniform(-1, 1, (b, n, 2))
        labels = rng.integers(0, c, size=b)
        for kind in ("avg-pool", "weighted-avg-pool", "lstm"):
            model = VideoModel(kind, n, d, c, lstm_hidden=4, rng=rng)
            f = rng.standard_normal((b, n, d))
            worst = max(worst, grad_check(head_loss(model, f, av, labels),
                                          model.params()))

    elapsed = time.monotonic() - started
    criterion(1, worst < 1e-4 and elapsed < 60,
              f"max relative gradient error {worst:.2e} over 10 seeds "
              f"(linear, mlp, lstm, all heads) in {elapsed:.1f}s")


# -- 2: frame-selection oracle -------------------------------------------------

def oracle_select(per_frame, L, n):
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


def test_criterion_2_selection_matches_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for case in range(1000):
        L = int(rng.integers(1, 41))
        n = int(rng.integers(1, 21))
        scores = np.zeros((L, 3))
        scores[:, 0] = rng.random(L)
        if rng.random() < 0.3:         # exercise ties
            scores[:, 0] = np.round(scores[:, 0], 1)
        clip = Clip(f"a{case}", "train", rng.standard_normal((L, 2)), scores,
                    rng.uniform(-1, 1, (L, 2)))
        got = select_frames([clip], n)[2][0].tolist()
        if got != oracle_select(scores[:, 0], L, n):
            mismatches += 1
    criterion(2, mismatches == 0,
              f"{mismatches} mismatches against the brute-force chunk oracle "
              f"over 1000 cases (L <= 40, n <= 20)")


# -- 3: weighted accuracy formula ----------------------------------------------

def weighted_via_evaluate(hits, support, counts):
    """``evaluate``'s weighted accuracy when class k has ``support`` clips,
    the first ``hits[k]`` of them predicted right and the rest wrong."""
    c = len(counts)
    true = np.repeat(np.arange(c), support)
    pred = true.copy()
    for k, h in enumerate(hits):
        pred[k * support + h:(k + 1) * support] = (k + 1) % c
    return evaluate(pred, true, c,
                    dist=ClassDistribution(np.asarray(counts))).weighted


def test_criterion_3_weighted_accuracy():
    counts = [99, 40, 70, 144, 80, 191, 29]
    one_hot = abs(weighted_via_evaluate([2, 0, 0, 0, 0, 0, 0], 2, counts)
                  - 99 / 653) <= 1e-12
    uniform = all(weighted_via_evaluate([round(a * 60)] * 7, 60, counts) == a
                  for a in (0.0, 0.25, 1 / 3, 0.9, 1.0))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        c = int(rng.integers(2, 9))
        true = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        rep = evaluate(pred, true, c,
                       dist=ClassDistribution(np.bincount(true, minlength=c)))
        worst = max(worst, abs(rep.weighted - rep.overall))
    criterion(3, one_hot and uniform and worst <= 1e-12,
              f"single-class 99/653 ok={one_hot}, uniform identity "
              f"ok={uniform}, worst self-distribution gap {worst:.1e} "
              f"over 100 fixtures")


# -- 4: reduction identities ---------------------------------------------------

def test_criterion_4_reduction_identities():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(25):
        B, L = int(rng.integers(1, 5)), int(rng.integers(1, 12))
        F = rng.standard_normal((B, L, 6))
        AV = rng.uniform(-1, 1, (B, L, 2))
        reg = Linear(2, 1, rng=None, name="regressor")  # zero weights
        pooled, _ = pool_weighted(F, AV, reg)
        worst = max(worst, float(np.max(np.abs(pooled - pool_average(F)))))

        srcs = [ScoreTable(["c"], p[None])
                for p in rng.dirichlet(np.ones(7), size=3)]
        gap = np.abs(fuse_tables(srcs, [1 / 3] * 3).probs
                     - fuse_tables(srcs).probs)
        worst = max(worst, float(gap.max()))

        member = ScoreTable(["c"], rng.dirichlet(np.ones(7))[None])
        gap = np.abs(fuse_tables([member] * 5).probs - member.probs)
        worst = max(worst, float(gap.max()))
    criterion(4, worst <= 1e-12,
              f"max deviation {worst:.1e} across weighted-pool/fusion/"
              f"ensemble reductions (tolerance 1e-12)")


# -- 5: synthetic end-to-end ---------------------------------------------------

def val_accuracy(model, ds):
    """Accuracy of ``predict_batch`` on the labeled val clips: training
    scores no split."""
    val = ds.labeled("val")
    pred = model.predict_batch(val).argmax(axis=1)
    return int(np.sum(pred == [c.label for c in val])) / len(val)


def test_criterion_5_synthetic_end_to_end():
    started = time.monotonic()
    cfg = SynthConfig(train_per_class=20, val_per_class=10, margin=10.0,
                      noise=0.1)
    ds = generate_synthetic(cfg, seed=1)

    video_cfg = TrainConfig(head="avg-pool", epochs=30)
    video_acc = val_accuracy(train_video_model(ds, video_cfg, seed=1)[0], ds)

    audio_cfg = TrainConfig(model="mlp", epochs=30)
    audio_acc = val_accuracy(train_audio_model(ds, audio_cfg, seed=1)[0], ds)

    elapsed = time.monotonic() - started
    criterion(5, video_acc >= 0.95 and audio_acc >= 0.95 and elapsed < 120,
              f"avg-pool val accuracy {video_acc:.3f}, audio MLP "
              f"{audio_acc:.3f} (threshold 0.95) in {elapsed:.1f}s")


# -- 6: ensemble and pretraining trends ----------------------------------------

def _val_acc_from_tables(tables, ds):
    probs = np.mean([t for t in tables], axis=0)
    ids = [c.id for c in ds.clips]
    by_id = {cid: probs[i] for i, cid in enumerate(ids)}
    val = [c for c in ds.clips if c.split == "val"]
    return float(np.mean([int(np.argmax(by_id[c.id])) == c.label
                          for c in val]))


def test_criterion_6_ensemble_and_pretraining_trends():
    mid = dict(train_per_class=8, val_per_class=8, n_classes=4, d_feature=8,
               d_audio=12, frames_min=3, frames_max=6, margin=2.0, noise=1.0)
    video_cfg = TrainConfig(head="avg-pool", epochs=10, n=4)
    singles, ensembles = [], []
    warm, cold = [], []
    for seed in range(10):
        ds = generate_synthetic(SynthConfig(**mid), seed=seed)
        tables = []
        for j in range(4):
            model, _ = train_video_model(ds, video_cfg, seed=seed * 10 + j)
            tables.append(np.stack([model.predict(c) for c in ds.clips]))
        singles.append(_val_acc_from_tables(tables[:1], ds))
        ensembles.append(_val_acc_from_tables(tables, ds))

        pre = generate_synthetic(
            SynthConfig(**{**mid, "margin": 4.0, "noise": 0.6,
                           "centroid_seed": seed}), seed=500 + seed)
        warm_cfg = TrainConfig(model="mlp", epochs=10, hidden=24,
                               pretrain_epochs=10)
        model, _ = train_audio_model(ds, warm_cfg, seed=seed, pretrain=pre)
        warm.append(val_accuracy(model, ds))
        cold_cfg = TrainConfig(model="mlp", epochs=10, hidden=24)
        model, _ = train_audio_model(ds, cold_cfg, seed=seed)
        cold.append(val_accuracy(model, ds))

    ens_gain = float(np.mean(ensembles) - np.mean(singles))
    pre_gain = float(np.mean(warm) - np.mean(cold))
    criterion(6, ens_gain >= -0.01 and pre_gain >= -0.01,
              f"ensemble(4) - single = {ens_gain:+.3f}, pretrained - scratch "
              f"= {pre_gain:+.3f} over 10 paired seeds (slack -0.01)")


# -- 7: forest overfit property ------------------------------------------------

def test_criterion_7_forest_overfits():
    started = time.monotonic()
    # margin 0: labels carry no signal, so generalization is impossible
    cfg = SynthConfig(train_per_class=20, val_per_class=10, margin=0.0,
                      noise=1.0)
    ds = generate_synthetic(cfg, seed=7)
    model, log = train_audio_model(ds, TrainConfig(model="forest"), seed=0)
    val = val_accuracy(model, ds)
    elapsed = time.monotonic() - started
    criterion(7, log["train_accuracy"] >= 0.99
              and val < log["train_accuracy"]
              and elapsed < 60,
              f"train accuracy {log['train_accuracy']:.3f} vs val "
              f"{val:.3f} with the default forest in {elapsed:.1f}s")


# -- 8: CLI determinism --------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path, capsys):
    synth = ["synth", "--classes", "3", "--clips-per-class", "4",
             "--val-per-class", "2", "--frames-min", "2", "--frames-max", "4",
             "--d-feature", "5", "--d-audio", "6", "--margin", "5.0",
             "--noise", "0.2", "--seed", "3"]
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("epochs = 2\nn = 3\nhidden = 8\nn_trees = 4\n")

    checks = []

    m1, m2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    assert main(synth + ["--out", str(m1)]) == 0
    assert main(synth + ["--out", str(m2)]) == 0
    checks.append(("synth rerun", m1.read_bytes() == m2.read_bytes()))

    c1, c2 = tmp_path / "v1.json", tmp_path / "v2.json"
    train = ["train-video", "--manifest", str(m1), "--config", str(cfg),
             "--seed", "5"]
    assert main(train + ["--out", str(c1)]) == 0
    assert main(train + ["--out", str(c2)]) == 0
    checks.append(("train rerun", c1.read_bytes() == c2.read_bytes()))

    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    predict = ["predict", "--model", str(c1), "--manifest", str(m1)]
    assert main(predict + ["--jobs", "1", "--out", str(s1)]) == 0
    assert main(predict + ["--jobs", "3", "--out", str(s2)]) == 0
    checks.append(("predict jobs", s1.read_bytes() == s2.read_bytes()))

    e1, e2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    ensemble = ["ensemble", "--manifest", str(m1), "--config", str(cfg),
                "--modality", "audio", "--model", "forest", "--count", "3",
                "--seed", "2"]
    assert main(ensemble + ["--jobs", "1", "--out", str(e1)]) == 0
    assert main(ensemble + ["--jobs", "3", "--out", str(e2)]) == 0
    checks.append(("ensemble jobs", e1.read_bytes() == e2.read_bytes()))

    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    recipe = ["recipe", "--preset", "submission2", "--manifest", str(m1),
              "--config", str(cfg), "--seed", "1"]
    assert main(recipe + ["--jobs", "1", "--out", str(r1)]) == 0
    assert main(recipe + ["--jobs", "4", "--out", str(r2)]) == 0
    checks.append(("recipe jobs", r1.read_bytes() == r2.read_bytes()))

    capsys.readouterr()
    failed = [name for name, ok in checks if not ok]
    criterion(8, not failed,
              "bit-identical outputs across reruns and --jobs for synth, "
              "train, predict, ensemble, recipe"
              + (f" (failed: {', '.join(failed)})" if failed else ""))
