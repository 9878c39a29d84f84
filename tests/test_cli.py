"""End-to-end command-line tests, in-process via cli.main(argv) except
where a test needs a fresh interpreter (the BLAS thread default)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import smallclip
from smallclip import cli, recipes
from smallclip.audio import train_audio_model
from smallclip.cli import BLAS_THREAD_VARS, main
from smallclip.config import AUDIO_MODELS, VIDEO_HEADS, load_config
from smallclip.data import load_dataset
from smallclip.video import train_video_model

SRC = str(Path(smallclip.__file__).resolve().parents[1])


SYNTH = ["synth", "--classes", "3", "--clips-per-class", "4",
         "--val-per-class", "2", "--test-per-class", "2",
         "--frames-min", "2", "--frames-max", "4",
         "--d-feature", "5", "--d-audio", "6",
         "--margin", "5.0", "--noise", "0.2", "--seed", "0"]

FAST_CFG = "epochs = 2\nn = 3\nhidden = 8\nn_trees = 5\nlstm_hidden = 8\n"


@pytest.fixture
def workdir(tmp_path):
    manifest = tmp_path / "data.jsonl"
    assert main(SYNTH + ["--out", str(manifest)]) == 0
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    return tmp_path


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    assert main(["synth", "--help"]) == 0
    capsys.readouterr()


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["train-video"]) == 2          # missing required args
    assert main(["predict", "--model", "x", "--manifest", "y",
                 "--split", "weird", "--out", "z"]) == 2
    capsys.readouterr()


def test_synth_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(SYNTH + ["--out", str(a)]) == 0
    assert main(SYNTH + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "wrote 24 clips" in out


def test_validate_prints_statistics(workdir, capsys):
    assert main(["validate", "--manifest", str(workdir / "data.jsonl")]) == 0
    assert "train" in capsys.readouterr().out


def test_missing_files_exit_one(workdir, capsys):
    m = str(workdir / "data.jsonl")
    for argv in (
            ["validate", "--manifest", str(workdir / "gone.jsonl")],
            ["predict", "--model", str(workdir / "gone.json"),
             "--manifest", m, "--out", str(workdir / "s.csv")],
            ["evaluate", "--scores", str(workdir / "gone.csv"),
             "--manifest", m]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1
        assert "gone." in err
    # files that exist but cannot be read as UTF-8 text, and a directory
    # where a file is expected
    garbage = workdir / "garbage"
    garbage.write_bytes(b"\xff\xfe")
    ids = [json.loads(line)["id"]
           for line in (workdir / "data.jsonl").read_text().splitlines()]
    scores = workdir / "s.csv"
    scores.write_text("clip_id,p0,p1,p2\n"
                      + "".join(f"{i},1,0,0\n" for i in ids))
    for argv in (
            ["validate", "--manifest", str(garbage)],
            ["validate", "--manifest", str(workdir)],
            ["evaluate", "--scores", str(garbage), "--manifest", m],
            ["predict", "--model", str(garbage), "--manifest", m,
             "--out", str(workdir / "p.csv")],
            ["evaluate", "--scores", str(scores), "--manifest", m,
             "--dist", str(garbage)],
            ["evaluate", "--scores", str(scores), "--manifest", m,
             "--dist", str(workdir)]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1
    # a distribution that parses but whose counts are all 0
    zeros = workdir / "zeros.csv"
    zeros.write_text("class,count\nclass0,0\nclass1,0\nclass2,0\n")
    assert main(["evaluate", "--scores", str(scores), "--manifest", m,
                 "--dist", str(zeros)]) == 1
    assert capsys.readouterr().err.splitlines() == \
        [f"error: {zeros}: class counts sum to 0"]


def test_negative_distribution_count_exits_one(workdir, capsys):
    m = str(workdir / "data.jsonl")
    ids = [json.loads(line)["id"]
           for line in (workdir / "data.jsonl").read_text().splitlines()]
    scores = workdir / "s.csv"
    scores.write_text("clip_id,p0,p1,p2\n"
                      + "".join(f"{i},1,0,0\n" for i in ids))
    neg = workdir / "neg.csv"
    neg.write_text("class,count\nclass0,3\nclass1,-2\nclass2,4\n")
    assert main(["evaluate", "--scores", str(scores), "--manifest", m,
                 "--dist", str(neg)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(neg) in lines[0] and "line 3" in lines[0]


def test_bad_config_file_exits_two(workdir, capsys):
    bad = workdir / "bad.cfg"
    bad.write_text("epochs = sometimes\n")
    assert main(["train-video", "--manifest", str(workdir / "data.jsonl"),
                 "--config", str(bad),
                 "--out", str(workdir / "m.json")]) == 2
    assert "line 1" in capsys.readouterr().err


FOREST = ["train-audio", "--model", "forest"]


@pytest.mark.parametrize("command, line, message", [
    (FOREST, "max_features = 0", "max_features must be >= 1, got 0"),
    (FOREST, "max_features = -1", "max_features must be >= 1, got -1"),
    (FOREST, "max_depth = -2", "max_depth must be >= 1, got -2"),
    (FOREST, "max_depth = 0", "max_depth must be >= 1, got 0"),
    (["train-audio", "--model", "mlp", "--pretrain", "data.jsonl"],
     "pretrain_epochs = -3", "pretrain_epochs must be >= 1, got -3"),
    (["train-audio", "--model", "mlp", "--pretrain", "data.jsonl"],
     "pretrain_epochs = 0", "pretrain_epochs must be >= 1, got 0"),
    (FOREST, "optimizer = foo",
     "unknown optimizer 'foo', expected one of adam, sgd"),
    (["train-video", "--pooling", "score-mean"], "optimizer = foo",
     "unknown optimizer 'foo', expected one of adam, sgd"),
    (["train-video", "--pooling", "avg-pool"], "optimizer = sgd-momentum",
     "unknown optimizer 'sgd-momentum', expected one of adam, sgd"),
    (["train-video", "--pooling", "avg-pool"], "lr = inf",
     "lr must be positive and finite, got inf"),
    (["train-video", "--pooling", "avg-pool"], "momentum = 1.5",
     "momentum must be in [0, 1), got 1.5"),
], ids=["max-features-zero", "max-features-negative", "max-depth-negative",
        "max-depth-zero", "pretrain-epochs-negative", "pretrain-epochs-zero",
        "optimizer-forest", "optimizer-score-mean", "optimizer-alias",
        "lr-inf", "momentum-one-and-a-half"])
def test_bad_config_value_exits_two(workdir, capsys, command, line, message):
    bad = workdir / "bad.cfg"
    bad.write_text(FAST_CFG + line + "\n")
    argv = [str(workdir / a) if a.endswith(".jsonl") else a for a in command]
    assert main(argv + ["--manifest", str(workdir / "data.jsonl"),
                        "--config", str(bad),
                        "--out", str(workdir / "m.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (workdir / "m.json").exists()


def test_unreadable_config_or_recipe_exits_two(workdir, capsys):
    m = str(workdir / "data.jsonl")
    garbage = workdir / "garbage.preset"
    garbage.write_bytes(b"\xff\xfe")
    out = str(workdir / "out")
    for argv in (
            ["train-video", "--manifest", m, "--config",
             str(workdir / "gone.cfg"), "--out", out],
            ["recipe", "--recipe", str(workdir / "gone.preset"),
             "--manifest", m, "--out", out],
            ["train-video", "--manifest", m, "--config", str(garbage),
             "--out", out],
            ["train-video", "--manifest", m, "--config", str(workdir),
             "--out", out],
            ["recipe", "--recipe", str(garbage), "--manifest", m,
             "--out", out],
            ["recipe", "--recipe", str(workdir), "--manifest", m,
             "--out", out]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1


def test_predict_bad_clip_exits_one_with_one_error_line(workdir, capsys):
    m = workdir / "data.jsonl"
    cfg = str(workdir / "fast.cfg")
    audio, video = str(workdir / "audio.json"), str(workdir / "video.json")
    assert main(["train-audio", "--manifest", str(m), "--config", cfg,
                 "--model", "forest", "--out", audio]) == 0
    assert main(["train-video", "--manifest", str(m), "--config", cfg,
                 "--out", video]) == 0
    records = [json.loads(line) for line in m.read_text().splitlines()]
    records[3]["audio"] = None
    holey = workdir / "holey.jsonl"
    holey.write_text("".join(json.dumps(r) + "\n" for r in records))
    narrow = workdir / "narrow.jsonl"
    assert main(SYNTH[:-2] + ["--d-feature", "4", "--seed", "0",
                              "--out", str(narrow)]) == 0
    capsys.readouterr()

    out = workdir / "scores.csv"
    for model, manifest, message in (
            (audio, holey, f"clip {records[3]['id']} has no audio"),
            (video, narrow, "feature dim 4 does not match model dim 5")):
        assert main(["predict", "--model", model, "--manifest",
                     str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: clip ")
        assert message in err[0]
        assert not out.exists()


def test_train_predict_evaluate_pipeline(workdir, capsys):
    m = str(workdir / "data.jsonl")
    cfg = str(workdir / "fast.cfg")
    ckpt = str(workdir / "video.json")
    scores = str(workdir / "scores.csv")

    assert main(["train-video", "--manifest", m, "--config", cfg,
                 "--pooling", "avg-pool", "--seed", "1",
                 "--out", ckpt]) == 0
    manifest = json.loads((workdir / "video.json.manifest.json").read_text())
    assert manifest["command"] == "train-video"
    assert manifest["seeds"] == [1]
    assert manifest["config"]["head"] == "avg-pool"
    assert manifest["inputs"][0] == m
    assert manifest["outputs"] == [ckpt]
    assert manifest["duration_s"] >= 0
    assert "version" in manifest and "argv" in manifest

    assert main(["predict", "--model", ckpt, "--manifest", m,
                 "--split", "val", "--out", scores]) == 0
    assert main(["evaluate", "--scores", scores, "--manifest", m,
                 "--split", "val"]) == 0
    out = capsys.readouterr().out
    assert "overall accuracy:" in out

    report_csv = str(workdir / "report.csv")
    assert main(["evaluate", "--scores", scores, "--manifest", m,
                 "--split", "val", "--out", report_csv]) == 0
    lines = (workdir / "report.csv").read_text().splitlines()
    assert lines[0] == "metric,value,n"
    capsys.readouterr()


def test_train_audio_and_pretrain(workdir, capsys):
    m = str(workdir / "data.jsonl")
    cfg = str(workdir / "fast.cfg")
    pre = workdir / "pre.jsonl"
    assert main(SYNTH + ["--seed", "9", "--out", str(pre)]) == 0

    assert main(["train-audio", "--manifest", m, "--config", cfg,
                 "--model", "mlp", "--pretrain", str(pre),
                 "--out", str(workdir / "mlp.json")]) == 0
    assert main(["train-audio", "--manifest", m, "--config", cfg,
                 "--model", "forest",
                 "--out", str(workdir / "forest.json")]) == 0
    out = capsys.readouterr().out
    assert out.count("val accuracy:") == 2
    # forests have no gradient pretraining phase
    assert main(["train-audio", "--manifest", m, "--config", cfg,
                 "--model", "forest", "--pretrain", str(pre),
                 "--out", str(workdir / "f2.json")]) == 1
    capsys.readouterr()


def test_evaluate_packaged_distribution_fallback(tmp_path, capsys):
    # 7-class data so the shipped distribution applies
    manifest = tmp_path / "d7.jsonl"
    args = list(SYNTH)
    args[args.index("--classes") + 1] = "7"
    assert main(args + ["--out", str(manifest)]) == 0
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    ckpt = str(tmp_path / "v.json")
    scores = str(tmp_path / "s.csv")
    assert main(["train-video", "--manifest", str(manifest), "--config",
                 str(cfg), "--out", ckpt]) == 0
    assert main(["predict", "--model", ckpt, "--manifest", str(manifest),
                 "--split", "val", "--out", scores]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--scores", scores, "--manifest", str(manifest),
                 "--split", "val", "--dist", "afew_test_dist.csv"]) == 0
    out = capsys.readouterr().out
    assert "overall accuracy:" in out
    assert "weighted accuracy:" in out
    assert main(["evaluate", "--scores", scores, "--manifest", str(manifest),
                 "--split", "val", "--dist", "nonexistent_dist.csv"]) == 1
    capsys.readouterr()


def test_fuse_and_learn_fusion(workdir, capsys):
    m = str(workdir / "data.jsonl")
    cfg = str(workdir / "fast.cfg")
    tables = []
    for i, modality in enumerate(("video", "audio")):
        ckpt = str(workdir / f"m{i}.json")
        cmd = ("train-video" if modality == "video" else "train-audio")
        assert main([cmd, "--manifest", m, "--config", cfg, "--seed", str(i),
                     "--out", ckpt]) == 0
        table = str(workdir / f"t{i}.csv")
        assert main(["predict", "--model", ckpt, "--manifest", m,
                     "--out", table]) == 0
        tables.append(table)

    fused = str(workdir / "fused.csv")
    assert main(["fuse", "--scores", *tables, "--weights", "0.65", "0.35",
                 "--out", fused]) == 0
    assert main(["evaluate", "--scores", fused, "--manifest", m,
                 "--split", "val"]) == 0

    weights_json = workdir / "w.json"
    assert main(["learn-fusion", "--scores", *tables, "--manifest", m,
                 "--grid-step", "0.25", "--out", str(weights_json)]) == 0
    payload = json.loads(weights_json.read_text())
    assert len(payload["weights"]) == 2
    assert abs(sum(payload["weights"]) - 1.0) < 1e-9
    assert 0.0 <= payload["accuracy"] <= 1.0
    out = capsys.readouterr().out
    assert "weights:" in out
    # out-of-range grid step is a usage error
    assert main(["learn-fusion", "--scores", *tables, "--manifest", m,
                 "--grid-step", "0.7"]) == 2


def test_ensemble_jobs_do_not_change_output(workdir, capsys):
    m = str(workdir / "data.jsonl")
    cfg = str(workdir / "fast.cfg")
    a, b = str(workdir / "e1.csv"), str(workdir / "e2.csv")
    base = ["ensemble", "--manifest", m, "--config", cfg, "--modality",
            "audio", "--model", "forest", "--count", "3", "--seed", "4"]
    assert main(base + ["--jobs", "1", "--out", a]) == 0
    assert main(base + ["--jobs", "3", "--out", b]) == 0
    assert (workdir / "e1.csv").read_bytes() == (workdir / "e2.csv").read_bytes()
    manifest = json.loads((workdir / "e1.csv.manifest.json").read_text())
    assert manifest["seeds"] == [4, 5, 6]
    assert manifest["extra"]["modality"] == "audio"
    capsys.readouterr()


def test_cross_validate_and_repeat(workdir, capsys):
    m = str(workdir / "data.jsonl")
    cfg = str(workdir / "fast.cfg")
    out = workdir / "cv.csv"
    assert main(["cross-validate", "--manifest", m, "--config", cfg,
                 "--modality", "audio", "--model", "forest", "--folds", "3",
                 "--jobs", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "fold,accuracy,n"
    assert lines[-1].startswith("pooled,")
    assert len(lines) == 5  # header + 3 folds + pooled
    assert "3-fold accuracies:" in capsys.readouterr().out
    # k beyond the class support is a usage error
    assert main(["cross-validate", "--manifest", m, "--config", cfg,
                 "--modality", "audio", "--model", "forest",
                 "--folds", "40"]) == 2

    rep = workdir / "seeds.csv"
    assert main(["repeat", "--manifest", m, "--config", cfg, "--modality",
                 "audio", "--model", "forest", "--seeds", "1", "2", "3",
                 "--jobs", "3", "--out", str(rep)]) == 0
    lines = rep.read_text().splitlines()
    assert lines[0] == "seed,accuracy"
    assert len(lines) == 4
    assert "mean:" in capsys.readouterr().out


KINDS = [("video", kind) for kind in VIDEO_HEADS] + \
        [("audio", kind) for kind in AUDIO_MODELS]


@pytest.mark.parametrize("modality, kind", KINDS,
                         ids=[kind for _, kind in KINDS])
def test_repeat_matches_each_seed_trained_alone(tmp_path, capsys, modality,
                                                kind):
    m = str(tmp_path / "noisy.jsonl")  # noisy enough that seeds disagree
    assert main(SYNTH[:-2] + ["--margin", "1", "--noise", "1", "--seed", "3",
                              "--out", m]) == 0
    (tmp_path / "fast.cfg").write_text(FAST_CFG)
    cfg = load_config(str(tmp_path / "fast.cfg"))
    setattr(cfg, "head" if modality == "video" else "model", kind)
    train = train_video_model if modality == "video" else train_audio_model
    ds = load_dataset(m)
    val = ds.labeled("val")
    seeds = [3, 1, 4]
    expected = []
    for seed in seeds:  # each seed alone, scored with predict_batch
        model, _ = train(ds, cfg, seed)
        pred = model.predict_batch(val).argmax(axis=1)
        expected.append(int((pred == [c.label for c in val]).sum()) / len(val))
    flag = "--pooling" if modality == "video" else "--model"
    for jobs in ("1", "2"):
        out = tmp_path / f"seeds-j{jobs}.csv"
        assert main(["repeat", "--manifest", m, "--config",
                     str(tmp_path / "fast.cfg"), "--modality", modality,
                     flag, kind, "--seeds", *map(str, seeds), "--jobs", jobs,
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(int(s), float(v)) for s, v in rows] == list(zip(seeds,
                                                                 expected))
    capsys.readouterr()


@pytest.mark.parametrize("modality, synth_flags", [
    ("video", ["--val-per-class", "0"]), ("audio", ["--no-audio"])],
    ids=["video-no-val-clips", "audio-no-audio"])
def test_repeat_without_labeled_val_clips_fails_before_training(
        tmp_path, capsys, monkeypatch, modality, synth_flags):
    m = str(tmp_path / "data.jsonl")
    assert main(SYNTH + synth_flags + ["--out", m]) == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("trained although nothing can be scored")

    monkeypatch.setattr(cli, "score_members", never)
    out = tmp_path / "seeds.csv"
    assert main(["repeat", "--manifest", m, "--modality", modality,
                 "--seeds", "1", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == \
        ["error: no labeled val clips to score"]
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_repeat_nonfinite_run_names_a_seed(workdir, capsys, jobs):
    cfg = workdir / "huge-lr.cfg"
    cfg.write_text(FAST_CFG + "epochs = 3\noptimizer = sgd\nlr = 1e100\n")
    out = workdir / "seeds.csv"
    assert main(["repeat", "--manifest", str(workdir / "data.jsonl"),
                 "--config", str(cfg), "--pooling", "avg-pool",
                 "--seeds", "5", "6", "7", "--jobs", jobs,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.match(r"^error: non-finite .* seed [567]; try a lower lr$",
                    err[0])
    assert not out.exists()


def test_csv_outputs_hold_plain_numbers(workdir, capsys):
    """evaluate, cross-validate and repeat CSVs: every value field is a
    number that ``float`` reads back and ``repr`` writes out unchanged."""
    m = str(workdir / "data.jsonl")
    cfg = str(workdir / "fast.cfg")
    assert main(["recipe", "--preset", "submission1", "--manifest", m,
                 "--config", cfg, "--out", str(workdir / "s.csv")]) == 0
    (workdir / "dist.csv").write_text("class,count\na,3\nb,5\nc,2\n")
    assert main(["evaluate", "--scores", str(workdir / "s.csv"),
                 "--manifest", m, "--split", "val", "--dist",
                 str(workdir / "dist.csv"), "--out",
                 str(workdir / "report.csv")]) == 0
    assert main(["cross-validate", "--manifest", m, "--config", cfg,
                 "--folds", "3", "--out", str(workdir / "cv.csv")]) == 0
    assert main(["repeat", "--manifest", m, "--config", cfg,
                 "--seeds", "1", "2", "--out", str(workdir / "seeds.csv")]) == 0
    capsys.readouterr()
    for name, rows in (("report.csv", 1 + 1 + 3), ("cv.csv", 3 + 1),
                       ("seeds.csv", 2)):
        lines = (workdir / name).read_text().splitlines()[1:]
        assert len(lines) == rows
        for line in lines:
            value = line.split(",")[1]
            assert repr(float(value)) == value


def test_recipe_preset_end_to_end(workdir, capsys):
    m = str(workdir / "data.jsonl")
    cfg = str(workdir / "fast.cfg")
    a, b = str(workdir / "r1.csv"), str(workdir / "r2.csv")
    base = ["recipe", "--preset", "submission1", "--manifest", m,
            "--config", cfg, "--seed", "2"]
    assert main(base + ["--jobs", "1", "--out", a]) == 0
    assert main(base + ["--jobs", "2", "--out", b]) == 0
    assert (workdir / "r1.csv").read_bytes() == (workdir / "r2.csv").read_bytes()
    manifest = json.loads((workdir / "r1.csv.manifest.json").read_text())
    assert manifest["extra"]["recipe"] == "submission1"
    assert [mm["seed"] for mm in manifest["extra"]["members"]] == [2, 3]
    assert manifest["extra"]["weights"] == [0.65, 0.35]
    out = capsys.readouterr().out
    assert "recipe submission1: 2 members" in out
    assert "held-out accuracy:" in out


def test_recipe_source_selection_errors(workdir, capsys):
    m = str(workdir / "data.jsonl")
    out = str(workdir / "x.csv")
    assert main(["recipe", "--manifest", m, "--out", out]) == 2
    assert main(["recipe", "--preset", "submission1", "--recipe", "f.preset",
                 "--manifest", m, "--out", out]) == 2
    assert main(["recipe", "--preset", "submission9", "--manifest", m,
                 "--out", out]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("weights, message", [
    (["-1", "2"], "fusion weights must be finite and nonnegative"),
    (["nan", "1"], "fusion weights must be finite and nonnegative"),
    (["0", "0"], "fusion weights must not all be zero"),
    (["1"], None),
], ids=["negative", "nan", "all-zero", "wrong-count"])
@pytest.mark.parametrize("command", ["fuse", "recipe"])
def test_bad_fusion_weights_exit_two_before_any_work(
        workdir, capsys, monkeypatch, command, weights, message):
    m = str(workdir / "data.jsonl")
    ids = [json.loads(line)["id"]
           for line in (workdir / "data.jsonl").read_text().splitlines()]
    tables = []
    for i in range(2):
        tables.append(str(workdir / f"t{i}.csv"))
        Path(tables[-1]).write_text("clip_id,p0,p1,p2\n" + "".join(
            f"{cid},1,{i},0\n" for cid in ids))
    rcp = workdir / "weighted.preset"
    rcp.write_text("video = avg-pool\naudio = mlp\nfusion = weighted\n"
                   f"weights = {' '.join(weights)}\n")

    def never(*args, **kwargs):
        raise AssertionError("trained although the weights are bad")

    monkeypatch.setattr(recipes, "train_video_models", never)
    monkeypatch.setattr(recipes, "train_audio_models", never)
    out = workdir / "fused.csv"
    argv = (["fuse", "--scores", *tables, "--weights", *weights]
            if command == "fuse" else
            ["recipe", "--recipe", str(rcp), "--manifest", m,
             "--config", str(workdir / "fast.cfg")])
    assert main(argv + ["--out", str(out)]) == 2
    if message is None:
        message = ("expected 2 weights, got shape (1,)" if command == "fuse"
                   else "1 weights for 2 modalities")
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


def test_recipe_file_and_member_manifest(workdir, capsys):
    m = str(workdir / "data.jsonl")
    cfg = str(workdir / "fast.cfg")
    rcp = workdir / "six.preset"
    rcp.write_text("video = avg-pool*2 weighted-avg-pool*2\n"
                   "audio = forest*1 mlp*1\nfusion = mean\n")
    out = str(workdir / "six.csv")
    assert main(["recipe", "--recipe", str(rcp), "--manifest", m,
                 "--config", cfg, "--seed", "0", "--out", out]) == 0
    manifest = json.loads((workdir / "six.csv.manifest.json").read_text())
    members = manifest["extra"]["members"]
    assert len(members) == 6
    assert [mm["seed"] for mm in members] == list(range(6))
    kinds = [mm["kind"] for mm in members]
    assert kinds == ["avg-pool", "avg-pool", "weighted-avg-pool",
                     "weighted-avg-pool", "forest", "mlp"]
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["predict", "--model", "m.json", "--manifest", "data.jsonl",
     "--out", "x.csv"],
    ["ensemble", "--manifest", "data.jsonl", "--out", "x.csv"],
    ["cross-validate", "--manifest", "data.jsonl"],
    ["repeat", "--manifest", "data.jsonl", "--seeds", "1", "2"],
    ["recipe", "--preset", "submission1", "--manifest", "data.jsonl",
     "--out", "x.csv"],
])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(workdir, capsys, command, jobs):
    argv = [str(workdir / a) if a.endswith((".json", ".jsonl", ".csv"))
            else a for a in command]
    assert main(argv + ["--jobs", jobs]) == 2
    assert capsys.readouterr().err.splitlines() == \
        [f"error: --jobs must be >= 1, got {jobs}"]
    assert not (workdir / "x.csv").exists()


@pytest.mark.parametrize("command, message", [
    (["learn-fusion", "--scores", "s.csv", "--manifest", "data.jsonl",
      "--grid-step", "0.7", "--out", "x.csv"],
     "--grid-step must be in (0, 0.5], got 0.7"),
    (["learn-fusion", "--scores", "s.csv", "--manifest", "data.jsonl",
      "--grid-step", "0", "--out", "x.csv"],
     "--grid-step must be in (0, 0.5], got 0.0"),
    (["learn-fusion", "--scores", "s.csv", "--manifest", "data.jsonl",
      "--grid-step", "0.3", "--out", "x.csv"],
     "--grid-step must be 1/K for a whole number K, got 0.3"),
    (["ensemble", "--manifest", "data.jsonl", "--count", "0",
      "--out", "x.csv"],
     "--count must be >= 1, got 0"),
    (["repeat", "--manifest", "data.jsonl", "--seeds", "4",
      "--out", "x.csv"],
     "--seeds needs at least two seeds, got 1"),
], ids=["grid-step-above", "grid-step-zero", "grid-step-thirds",
        "count-zero", "one-seed"])
def test_bad_flag_value_is_a_usage_error(workdir, capsys, command, message):
    argv = [str(workdir / a) if a.endswith((".jsonl", ".csv"))
            else a for a in command]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (workdir / "x.csv").exists()


def test_out_directory_fails_without_traceback(workdir, capsys):
    taken = workdir / "taken"
    taken.mkdir()
    before = sorted(p.name for p in workdir.iterdir())
    assert main(["validate", "--manifest", str(workdir / "data.jsonl"),
                 "--out", str(taken)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write ")
    assert sorted(p.name for p in workdir.iterdir()) == before
    assert list(taken.iterdir()) == []


def _fresh(args, cwd=None, **env_vars):
    """Run ``python <args>`` in a fresh interpreter with the checkout's
    sources on the path, the BLAS thread variables removed from the
    environment and then ``env_vars`` set; returns its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(env_vars)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


PROBE = """
import json, os, sys
import smallclip.cli
print(json.dumps({
    "vars": {name: os.environ.get(name) for name in
             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    "threads": (len(os.listdir("/proc/self/task"))
                if sys.platform.startswith("linux") else None)}))
"""


def test_cli_import_runs_blas_on_one_thread():
    seen = json.loads(_fresh(["-c", PROBE]))
    assert seen["vars"] == {"OPENBLAS_NUM_THREADS": "1",
                            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    if sys.platform.startswith("linux"):
        assert seen["threads"] == 1


def test_explicit_blas_thread_count_wins():
    seen = json.loads(_fresh(["-c", PROBE], OPENBLAS_NUM_THREADS="2"))
    assert seen["vars"]["OPENBLAS_NUM_THREADS"] == "2"
    assert seen["vars"]["OMP_NUM_THREADS"] == "1"


def test_lstm_outputs_do_not_depend_on_blas_threads(tmp_path):
    # The benchmark's roundtrip-hard data; two epochs keep the test short.
    cli = ["-m", "smallclip.cli"]
    _fresh(cli + ["synth", "--seed", "1", "--margin", "2", "--noise", "1.0",
                  "--clips-per-class", "12", "--val-per-class", "10",
                  "--out", "data.jsonl"], cwd=tmp_path)
    (tmp_path / "two.cfg").write_text("epochs = 2\n")
    outputs = {}
    for threads in ("1", "2"):
        _fresh(cli + ["train-video", "--manifest", "data.jsonl",
                      "--config", "two.cfg", "--pooling", "lstm", "--seed",
                      "0", "--out", f"video{threads}.json"],
               cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
        _fresh(cli + ["predict", "--model", f"video{threads}.json",
                      "--manifest", "data.jsonl",
                      "--out", f"video{threads}.csv"],
               cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
        outputs[threads] = [(tmp_path / f"video{threads}.{ext}").read_bytes()
                            for ext in ("json", "csv")]
    assert outputs["1"] == outputs["2"]
