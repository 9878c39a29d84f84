import numpy as np
import pytest

from smallclip.data import (ClassDistribution, build_dataset,
                            packaged_distribution_path, load_distribution)
from smallclip.errors import ConfigError, ContractError
from smallclip.evaluate import (CVReport, RunStatistics, cross_validate,
                                evaluate, labeled_rows,
                                predictions_from_table, weighted_accuracy)
from smallclip.scores import ScoreTable
from smallclip.synth import SynthConfig, generate_synthetic

from conftest import make_clip


TEST_COUNTS = [99, 40, 70, 144, 80, 191, 29]  # sums to 653


def test_weighted_accuracy_uniform_is_identity():
    for a in (0.0, 0.37, 1.0, 1 / 3):
        assert weighted_accuracy([a] * 7, TEST_COUNTS) == a


def test_weighted_accuracy_single_class_fixture():
    acc = [1.0, 0, 0, 0, 0, 0, 0]
    assert weighted_accuracy(acc, TEST_COUNTS) == 99 / 653


def test_weighted_accuracy_is_linear_in_counts():
    acc = [0.5, 0.25]
    assert weighted_accuracy(acc, [1, 1]) == 0.375
    assert weighted_accuracy(acc, [3, 1]) == (1.5 + 0.25) / 4


def test_weighted_accuracy_contract_errors():
    with pytest.raises(ContractError):
        weighted_accuracy([0.5], [1, 2])
    with pytest.raises(ContractError):
        weighted_accuracy([0.5, 0.5], [1, -1])
    with pytest.raises(ContractError):
        weighted_accuracy([0.5, 0.5], [0, 0])


def test_evaluate_all_correct():
    y = np.array([0, 1, 2, 3, 4, 5, 6] * 3)
    rep = evaluate(y, y, 7)
    assert rep.overall == 1.0
    assert np.array_equal(rep.per_class, np.ones(7))
    assert np.array_equal(rep.confusion, np.eye(7, dtype=np.int64) * 3)
    assert rep.weighted is None


def test_constant_predictor_on_balanced_labels():
    y = np.repeat(np.arange(7), 4)
    pred = np.zeros_like(y)
    rep = evaluate(pred, y, 7)
    assert rep.overall == pytest.approx(1 / 7)
    assert rep.per_class[0] == 1.0
    assert np.all(rep.per_class[1:] == 0.0)


def test_confusion_fixture_by_hand():
    true = [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
    pred = [0, 0, 1, 2, 1, 1, 0, 2, 2, 2]
    rep = evaluate(pred, true, 3)
    assert rep.n == 10
    assert rep.overall == 0.7
    assert np.array_equal(rep.confusion,
                          [[2, 1, 1], [1, 2, 0], [0, 0, 3]])
    assert np.allclose(rep.per_class, [0.5, 2 / 3, 1.0])
    assert np.array_equal(rep.support, [4, 3, 3])


def test_self_distribution_recovers_overall_exactly():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        c = int(rng.integers(2, 8))
        true = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        dist = ClassDistribution(np.bincount(true, minlength=c))
        rep = evaluate(pred, true, c, dist=dist)
        assert rep.weighted == rep.overall  # exact, not approximate


def test_weighted_shifts_with_foreign_distribution():
    true = np.array([0, 0, 0, 1])
    pred = np.array([0, 0, 0, 0])   # class 0 perfect, class 1 never right
    rep = evaluate(pred, true, 2, dist=ClassDistribution([1, 9]))
    assert rep.overall == 0.75
    assert rep.weighted == 0.1


def test_packaged_distribution_loads():
    dist = load_distribution(packaged_distribution_path())
    assert dist.total == 653
    assert list(dist.counts) == TEST_COUNTS


def test_evaluate_contract_errors():
    with pytest.raises(ContractError):
        evaluate([0, 1], [0], 2)
    with pytest.raises(ContractError):
        evaluate([], [], 2)
    with pytest.raises(ContractError):
        evaluate([0, 2], [0, 1], 2)
    with pytest.raises(ContractError):
        evaluate([0, 1], [0, 2], 2)
    with pytest.raises(ContractError):
        evaluate([0, 0], [0, 1], 2, dist=ClassDistribution([4]))


def test_report_text_and_csv():
    rep = evaluate([0, 1, 1], [0, 1, 0], 2, dist=ClassDistribution([5, 5]))
    text = rep.to_text(["neg", "pos"])
    assert "overall accuracy: 0.6667" in text
    assert "neg: 0.5000 (n=2)" in text
    csv = rep.to_csv(["neg", "pos"])
    lines = csv.splitlines()
    assert lines[0] == "metric,value,n"
    assert lines[1].startswith("overall,")
    assert any(line.startswith("weighted,") for line in lines)
    assert float(lines[1].split(",")[1]) == rep.overall
    assert lines[-2:] == ["neg,0.5,2", "pos,1.0,1"]  # plain numbers


def table_for(clips, probs_by_id):
    ids = [c.id for c in clips if c.id in probs_by_id]
    return ScoreTable(ids, np.stack([probs_by_id[i] for i in ids]))


def test_predictions_from_table_split_coverage(rng):
    clips = [make_clip(rng, f"c{i}", split="val", label=i % 2, n_classes=2)
             for i in range(4)]
    ds = build_dataset(clips)
    probs = {c.id: np.eye(2)[c.label] for c in clips}
    pred, true = predictions_from_table(table_for(clips, probs), ds, "val")
    assert np.array_equal(pred, true)
    del probs["c2"]
    with pytest.raises(ContractError, match="'c2'"):
        predictions_from_table(table_for(clips, probs), ds, "val")
    # without an explicit split the table's coverage defines the set
    pred, true = predictions_from_table(table_for(clips, probs), ds)
    assert pred.size == 3


def test_predictions_from_table_ignores_row_order(rng):
    clips = [make_clip(rng, f"c{i}", split="val", label=i % 3, n_classes=3)
             for i in range(30)]
    ds = build_dataset(clips)
    probs = {c.id: rng.random(3) for c in clips}
    table = table_for(clips, probs)
    shuffled = table.reordered(list(rng.permutation(table.ids)))
    assert shuffled.ids != table.ids
    for split in ("val", None):
        pred, true = predictions_from_table(table, ds, split)
        pred_s, true_s = predictions_from_table(shuffled, ds, split)
        assert np.array_equal(pred_s, pred) and np.array_equal(true_s, true)
        assert np.array_equal(pred, [np.argmax(probs[c.id]) for c in clips])


def test_labeled_rows_skip_unlabeled_and_stray_rows(rng):
    clips = [make_clip(rng, f"c{i}", split="val", label=i % 2, n_classes=2)
             for i in range(3)]
    clips.append(make_clip(rng, "u", split="test", label=None, n_classes=2))
    ds = build_dataset(clips)
    table = ScoreTable(["stray", "u", "c2", "c0", "c1"], np.full((5, 2), 0.5))
    rows, true = labeled_rows(table, ds)
    assert rows.tolist() == [3, 4, 2]  # dataset order
    assert true.tolist() == [0, 1, 0]
    rows, true = labeled_rows(table, ds, "val")
    assert rows.tolist() == [3, 4, 2]


def test_predictions_from_table_no_overlap(rng):
    clips = [make_clip(rng, "c0", split="val", label=0)]
    ds = build_dataset(clips)
    stray = ScoreTable(["other"], np.ones((1, 7)) / 7)
    with pytest.raises(ContractError):
        predictions_from_table(stray, ds)


def test_repeated_runs_statistics():
    stats = RunStatistics([1, 2, 3], np.full(3, 0.5))
    assert stats.mean == 0.5 and stats.std == 0.0
    stats = RunStatistics([1, 2], np.array([0.4, 0.6]))
    assert stats.mean == pytest.approx(0.5)
    assert stats.std == pytest.approx(0.1)  # population std
    assert stats.to_text() == "runs: 1:0.4000 2:0.6000\nmean: 0.5000\nstd: 0.1000\n"


def cv_dataset(per_class=10, n_classes=3, seed=0):
    cfg = SynthConfig(n_classes=n_classes, train_per_class=per_class,
                      val_per_class=0, d_feature=5, d_audio=6,
                      frames_min=2, frames_max=4, margin=6.0, noise=0.3)
    return generate_synthetic(cfg, seed)


def test_cross_validate_leave_one_out_on_single_class(rng):
    clips = [make_clip(rng, f"c{i:02d}", split="train", label=0, n_classes=2)
             for i in range(14)]
    ds = build_dataset(clips)
    seen = []

    def fit_predict(fold_ds, fold):
        val = fold_ds.split("val")
        seen.append((fold, len(fold_ds.split("train")), len(val)))
        return [c.label for c in val]

    rep = cross_validate(ds, 14, fit_predict)
    assert rep.k == 14 and len(seen) == 14
    assert all(n_train == 13 and n_val == 1 for _, n_train, n_val in seen)
    assert rep.pooled == 1.0 and rep.mean == 1.0


def test_cross_validate_folds_are_stratified():
    ds = cv_dataset(per_class=10, n_classes=3)
    sizes = []

    def fit_predict(fold_ds, fold):
        val = fold_ds.split("val")
        labels = np.bincount([c.label for c in val], minlength=3)
        sizes.append(labels)
        return [c.label for c in val]

    rep = cross_validate(ds, 4, fit_predict)
    for labels in sizes:
        assert labels.max() - labels.min() <= 1  # within one per class
    assert np.array_equal(rep.fold_sizes, [sum(s) for s in sizes])


def test_cross_validate_accuracy_on_separable_data():
    from smallclip.audio import train_audio_model
    from smallclip.config import TrainConfig

    ds = cv_dataset(per_class=8, n_classes=3, seed=1)

    def fit_predict(fold_ds, fold):
        cfg = TrainConfig(model="forest", n_trees=15)
        model, _ = train_audio_model(fold_ds, cfg, seed=fold)
        return [np.argmax(model.predict(c)) for c in fold_ds.split("val")]

    rep = cross_validate(ds, 5, fit_predict)
    assert rep.pooled >= 0.9
    assert "pooled" in rep.to_text()


def test_cross_validate_jobs_do_not_change_results():
    ds = cv_dataset(per_class=6, n_classes=2, seed=2)

    def fit_predict(fold_ds, fold):
        # deterministic stand-in: predict the label parity of the fold index
        return [(fold + c.label) % 2 for c in fold_ds.split("val")]

    a = cross_validate(ds, 3, fit_predict, jobs=1)
    b = cross_validate(ds, 3, fit_predict, jobs=3)
    assert np.array_equal(a.fold_accuracies, b.fold_accuracies)
    assert a.pooled == b.pooled


def test_cross_validate_config_errors(rng):
    ds = cv_dataset(per_class=3, n_classes=2)
    with pytest.raises(ConfigError):
        cross_validate(ds, 1, lambda d, f: [])
    with pytest.raises(ConfigError, match="class 0"):
        cross_validate(ds, 4, lambda d, f: [])
    empty = build_dataset([make_clip(rng, "t0", split="test", label=0)])
    with pytest.raises(ContractError):
        cross_validate(empty, 2, lambda d, f: [])


def test_cross_validate_wrong_prediction_count(rng):
    ds = cv_dataset(per_class=4, n_classes=2)
    with pytest.raises(ContractError, match="fold 0"):
        cross_validate(ds, 2, lambda d, f: [0])
