"""End-to-end command-line tests, in-process via cli.main(argv) except
where a test needs a fresh interpreter (the BLAS thread default)."""

import base64
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import smallclip
from conftest import checkpoint_as_version
from smallclip import cli, recipes
from smallclip.audio import train_audio_model
from smallclip.checkpoint import load_checkpoint
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


@pytest.mark.parametrize("argv", [
    ["train-video", "--manifest", "{manifest}", "--out", "{d}/m.json"],
    ["train-audio", "--manifest", "{manifest}", "--out", "{d}/m.json"],
    ["fuse", "--scores", "{scores}", "{scores}", "--out", "{d}/f.csv"],
    ["learn-fusion", "--manifest", "{manifest}", "--scores", "{scores}",
     "{scores}"],
    ["ensemble", "--manifest", "{manifest}", "--count", "2",
     "--out", "{d}/e.csv"],
    ["cross-validate", "--manifest", "{manifest}", "--folds", "2"],
    ["repeat", "--manifest", "{manifest}", "--seeds", "1", "2"],
    ["recipe", "--preset", "submission1", "--manifest", "{manifest}",
     "--out", "{d}/r.csv"],
], ids=lambda argv: argv[0])
def test_garbage_inputs_exit_with_one_error_line(workdir, capsys, argv):
    # a manifest that is not UTF-8 or whose line is not a clip record, and
    # a score table that is not UTF-8 or not CSV (the manifest itself)
    m = workdir / "data.jsonl"
    ids = [json.loads(line)["id"] for line in m.read_text().splitlines()]
    scores = workdir / "s.csv"
    scores.write_text("clip_id,p0,p1,p2\n"
                      + "".join(f"{i},1,0,0\n" for i in ids))
    not_utf8 = workdir / "not-utf8"
    not_utf8.write_bytes(b"\xff\xfe")
    not_a_clip = workdir / "list.jsonl"
    not_a_clip.write_text("[1, 2]\n")
    cases = []
    if "{manifest}" in argv:
        cases += [(bad, scores) for bad in (not_utf8, not_a_clip)]
    if "{scores}" in argv:
        cases += [(m, bad) for bad in (not_utf8, m)]
    for manifest, table in cases:
        filled = [a.format(manifest=manifest, scores=table, d=workdir)
                  for a in argv]
        assert main(filled) in (1, 2), filled
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), filled
        assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("argv", [
    ["evaluate", "--scores", "{m}", "--manifest", "{m}"],
    ["fuse", "--scores", "{m}", "{m}", "--out", "{d}/f.csv"],
    ["train-video", "--config", "{m}", "--manifest", "{m}",
     "--out", "{d}/v.json"],
    ["recipe", "--recipe", "{m}", "--manifest", "{m}", "--out", "{d}/r.csv"],
    ["evaluate", "--scores", "{s}", "--manifest", "{m}", "--dist", "{m}"],
], ids=["scores", "fuse-scores", "config", "recipe", "dist"])
def test_an_error_line_quotes_at_most_a_short_part_of_a_file(
        workdir, capsys, argv):
    # the manifest given as every other kind of input file; its lines are
    # hundreds of bytes long
    m = workdir / "data.jsonl"
    assert min(map(len, m.read_text().splitlines())) > 300
    ids = [json.loads(line)["id"] for line in m.read_text().splitlines()]
    scores = workdir / "s.csv"
    scores.write_text("clip_id,p0,p1,p2\n"
                      + "".join(f"{i},1,0,0\n" for i in ids))
    capsys.readouterr()
    assert main([a.format(m=m, s=scores, d=workdir) for a in argv]) in (1, 2)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert len(err[0].encode()) < 200, err[0]


def _with_long_value(workdir, case):
    """The argv of a command whose input file holds a value thousands of
    bytes long where the error line quotes it: a manifest record's field,
    a checkpoint field, or the clip id of a bad score-table row or of a
    clip without audio."""
    m = workdir / "data.jsonl"
    long_id = "c" * 5000

    def manifest_with(i, **fields):
        records = [json.loads(line) for line in m.read_text().splitlines()]
        records[i].update(fields)
        bad = workdir / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(bad)

    if case.startswith("manifest-"):
        key, value = {
            "manifest-id-list": ("id", list(range(3000))),
            "manifest-split-long": ("split", "s" * 5000),
            "manifest-split-list": ("split", ["train"] * 2000),
            "manifest-label-list": ("label", list(range(2000))),
        }[case]
        return ["validate", "--manifest", manifest_with(2, **{key: value})]
    if case == "audio-clip-long-id":
        ckpt = workdir / "forest.json"
        assert main(["train-audio", "--manifest", str(m), "--model", "forest",
                     "--config", str(workdir / "fast.cfg"),
                     "--out", str(ckpt)]) == 0
        return ["predict", "--model", str(ckpt), "--manifest",
                manifest_with(-1, id=long_id, audio=None),
                "--out", str(workdir / "p.csv")]
    if case.startswith("checkpoint-"):
        ckpt = workdir / "model.json"
        assert main(["train-video", "--manifest", str(m), "--config",
                     str(workdir / "fast.cfg"), "--out", str(ckpt)]) == 0
        obj = json.loads(ckpt.read_text())
        if case == "checkpoint-head-list":
            obj["meta"]["head"] = ["lstm"] * 3000
        else:
            obj["version"] = list(range(2000))
        ckpt.write_text(json.dumps(obj))
        return ["predict", "--model", str(ckpt), "--manifest", str(m),
                "--out", str(workdir / "p.csv")]
    scores = workdir / "s.csv"
    scores.write_text(f"clip_id,p0,p1,p2\n{long_id},0,0,0\n")
    return ["evaluate", "--scores", str(scores), "--manifest", str(m)]


@pytest.mark.parametrize("case", [
    "manifest-id-list", "manifest-split-long", "manifest-split-list",
    "manifest-label-list", "checkpoint-head-list", "checkpoint-version-list",
    "score-table-long-id", "audio-clip-long-id"])
def test_an_error_line_cuts_a_long_value_from_a_file(workdir, capsys, case):
    argv = _with_long_value(workdir, case)
    capsys.readouterr()
    assert main(argv) in (1, 2)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert len(err[0].encode()) < 300, err[0]


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


@pytest.mark.parametrize("clip_id", ["a,b", "a\nb", "a\rb"])
def test_predict_rejects_an_id_no_table_can_hold(workdir, capsys, clip_id):
    m = workdir / "data.jsonl"
    model = str(workdir / "video.json")
    assert main(["train-video", "--manifest", str(m), "--config",
                 str(workdir / "fast.cfg"), "--pooling", "avg-pool",
                 "--out", model]) == 0
    records = [json.loads(line) for line in m.read_text().splitlines()]
    records[1]["id"] = clip_id
    odd = workdir / "odd.jsonl"
    odd.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    out = workdir / "scores.csv"
    assert main(["predict", "--model", model, "--manifest", str(odd),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: clip {clip_id!r}: a score table cannot hold an id with a "
        f"comma or a line break"]
    assert not out.exists()
    assert not (workdir / "scores.csv.manifest.json").exists()


@pytest.mark.parametrize("index", [0, 5], ids=["first", "later"])
@pytest.mark.parametrize("field, name", [
    ("audio", "audio"), ("f", "features"), ("s", "scores")])
def test_validate_rejects_a_scalar_array(workdir, capsys, field, name,
                                         index):
    records = [json.loads(line) for line in
               (workdir / "data.jsonl").read_text().splitlines()]
    clip = records[index]
    if field == "audio":
        clip["audio"], ranks = 5, "1-dimensional, got shape ()"
    else:
        for frame in clip["frames"]:
            frame[field] = 5
        ranks = f"2-dimensional, got shape ({len(clip['frames'])},)"
    bad = workdir / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert main(["validate", "--manifest", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: clip {clip['id']!r}: {name} must be {ranks}"]


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
    # only a bare file name falls back: a missing path is an error
    missing = str(tmp_path / "no-such-dir" / "afew_test_dist.csv")
    assert main(["evaluate", "--scores", scores, "--manifest", str(manifest),
                 "--split", "val", "--dist", missing]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot read distribution {missing}: ")


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


def test_learn_fusion_skips_unlabeled_clips(workdir, capsys):
    # the AFEW setting: test clips come without labels, and predict scores
    # every clip; learn-fusion scores the labeled rows, as evaluate does
    lines = (workdir / "data.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    test_ids = {r["id"] for r in rows if r["split"] == "test"}
    for r in rows:
        if r["id"] in test_ids:
            r["label"] = None
    m = workdir / "unlabeled.jsonl"
    m.write_text("".join(json.dumps(r) + "\n" for r in rows))
    cfg = str(workdir / "fast.cfg")
    full, labeled = [], []
    for i, cmd in enumerate(("train-video", "train-audio")):
        ckpt = str(workdir / f"m{i}.json")
        assert main([cmd, "--manifest", str(m), "--config", cfg,
                     "--seed", str(i), "--out", ckpt]) == 0
        full.append(workdir / f"all{i}.csv")
        assert main(["predict", "--model", ckpt, "--manifest", str(m),
                     "--out", str(full[-1])]) == 0
        labeled.append(workdir / f"labeled{i}.csv")
        labeled[-1].write_text("".join(
            line + "\n" for line in full[-1].read_text().splitlines()
            if line.split(",")[0] not in test_ids))
    capsys.readouterr()
    printed = []
    for tables in (full, labeled):
        assert main(["learn-fusion", "--scores", *map(str, tables),
                     "--manifest", str(m)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert "accuracy:" in printed[0]


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


def test_audio_cross_validate_and_repeat_skip_clips_without_audio(
        workdir, capsys):
    records = [json.loads(line) for line in
               (workdir / "data.jsonl").read_text().splitlines()]
    for split in ("train", "val"):
        next(r for r in records if r["split"] == split)["audio"] = None
    m = workdir / "partial.jsonl"
    m.write_text("".join(json.dumps(r) + "\n" for r in records))
    with_audio = sum(r["split"] in ("train", "val") and r["label"] is not None
                     and r["audio"] is not None for r in records)
    assert with_audio == 16
    flags = ["--manifest", str(m), "--config", str(workdir / "fast.cfg"),
             "--modality", "audio", "--model", "forest"]
    out = workdir / "cv.csv"
    assert main(["cross-validate", *flags, "--folds", "3",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].endswith(f",{with_audio}")
    assert main(["repeat", *flags, "--seeds", "1", "2"]) == 0
    capsys.readouterr()


def test_val_accuracy_scores_the_clips_each_modality_covers(tmp_path,
                                                            capsys):
    m = tmp_path / "noisy.jsonl"  # noisy enough that some val clips miss
    assert main(SYNTH[:-2] + ["--margin", "1", "--noise", "1", "--seed", "3",
                              "--out", str(m)]) == 0
    records = [json.loads(line) for line in m.read_text().splitlines()]
    for split in ("train", "val"):
        next(r for r in records if r["split"] == split)["audio"] = None
    m.write_text("".join(json.dumps(r) + "\n" for r in records))
    ds = load_dataset(str(m))
    val = [c for c in ds.split("val") if c.label is not None]
    with_audio = [c for c in val if c.audio is not None]
    assert (len(val), len(with_audio)) == (6, 5)
    (tmp_path / "fast.cfg").write_text(FAST_CFG)
    flags = ["--manifest", str(m), "--config", str(tmp_path / "fast.cfg")]

    def accuracy(path, clips):
        pred = load_checkpoint(str(path)).predict_batch(clips).argmax(axis=1)
        return int((pred == [c.label for c in clips]).sum()) / len(clips)

    capsys.readouterr()
    assert main(["train-video", *flags, "--seed", "1",
                 "--out", str(tmp_path / "video.json")]) == 0
    printed = capsys.readouterr().out
    expected = accuracy(tmp_path / "video.json", val)
    assert expected != accuracy(tmp_path / "video.json", val[1:])
    assert printed.endswith(f"val accuracy: {expected:.4f}\n")
    per_seed = []
    for seed in (1, 2):
        out = tmp_path / f"forest-{seed}.json"
        assert main(["train-audio", *flags, "--model", "forest",
                     "--seed", str(seed), "--out", str(out)]) == 0
        per_seed.append(accuracy(out, with_audio))
        assert capsys.readouterr().out.endswith(
            f"val accuracy: {per_seed[-1]:.4f}\n")
    rep = tmp_path / "seeds.csv"
    assert main(["repeat", *flags, "--modality", "audio", "--model",
                 "forest", "--seeds", "1", "2", "--out", str(rep)]) == 0
    rows = [line.split(",") for line in rep.read_text().splitlines()[1:]]
    assert [float(v) for _, v in rows] == per_seed
    capsys.readouterr()


@pytest.mark.parametrize("flags, message", [
    (["--model", "forest"], "--model does not apply to --modality video"),
    (["--modality", "audio", "--pooling", "lstm"],
     "--pooling does not apply to --modality audio"),
], ids=["model-with-video", "pooling-with-audio"])
@pytest.mark.parametrize("command", [
    ["ensemble", "--out", "{d}/e.csv"], ["cross-validate"],
    ["repeat", "--seeds", "1", "2"],
], ids=lambda command: command[0])
def test_member_commands_refuse_the_other_modalitys_kind_flag(
        tmp_path, capsys, command, flags, message):
    # the manifest does not exist: the flags are refused before any read
    argv = [command[0], "--manifest", str(tmp_path / "gone.jsonl"), *flags,
            *(a.format(d=tmp_path) for a in command[1:])]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


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

    monkeypatch.setattr(recipes, "score_members", never)
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
    (["1.7e308", "1.6e308"], "fusion weights must have a finite sum"),
    (["1"], "expected 2 weights, got shape (1,)"),
], ids=["negative", "nan", "all-zero", "sum-overflows", "wrong-count"])
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
    rcp.write_text("video = avg-pool\naudio = mlp\n"
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
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


def test_recipe_fusion_line_is_an_unknown_key_exit_two(
        workdir, capsys, monkeypatch):
    rcp = workdir / "mean.preset"
    rcp.write_text("video = avg-pool\naudio = mlp\nfusion = mean\n")
    monkeypatch.setattr(recipes, "train_video_models", None)
    monkeypatch.setattr(recipes, "train_audio_models", None)
    out = workdir / "mean.csv"
    assert main(["recipe", "--recipe", str(rcp), "--manifest",
                 str(workdir / "data.jsonl"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == \
        ["error: line 3: unknown recipe key 'fusion'"]
    assert not out.exists()


def test_recipe_file_and_member_manifest(workdir, capsys):
    m = str(workdir / "data.jsonl")
    cfg = str(workdir / "fast.cfg")
    rcp = workdir / "six.preset"
    rcp.write_text("video = avg-pool*2 weighted-avg-pool*2\n"
                   "audio = forest*1 mlp*1\n")
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
    (["repeat", "--manifest", "data.jsonl", "--seeds", "1", "1",
      "--out", "x.csv"],
     "--seeds must be distinct, got 1 1"),
    (SYNTH[:-1] + ["-1", "--out", "x.jsonl"], "--seed must be >= 0, got -1"),
    (SYNTH + ["--centroid-seed", "-1", "--out", "x.jsonl"],
     "--centroid-seed must be >= 0, got -1"),
    (["train-video", "--manifest", "data.jsonl", "--seed", "-1",
      "--out", "x.json"], "--seed must be >= 0, got -1"),
    (["train-audio", "--manifest", "data.jsonl", "--seed", "-1",
      "--out", "x.json"], "--seed must be >= 0, got -1"),
    (["ensemble", "--manifest", "data.jsonl", "--seed", "-1",
      "--out", "x.csv"], "--seed must be >= 0, got -1"),
    (["cross-validate", "--manifest", "data.jsonl", "--seed", "-1",
      "--out", "x.csv"], "--seed must be >= 0, got -1"),
    (["recipe", "--preset", "submission1", "--manifest", "data.jsonl",
      "--seed", "-1", "--out", "x.csv"], "--seed must be >= 0, got -1"),
    (["repeat", "--manifest", "data.jsonl", "--seeds", "-1", "2",
      "--out", "x.csv"], "--seeds must be >= 0, got -1"),
    (SYNTH + ["--margin", "inf", "--out", "x.jsonl"],
     "margin must be finite and >= 0, got inf"),
    (SYNTH + ["--margin", "nan", "--out", "x.jsonl"],
     "margin must be finite and >= 0, got nan"),
    (SYNTH + ["--noise", "inf", "--out", "x.jsonl"],
     "noise must be finite and >= 0, got inf"),
    (SYNTH + ["--av-noise", "-1", "--out", "x.jsonl"],
     "av_noise must be finite and >= 0, got -1.0"),
], ids=["grid-step-above", "grid-step-zero", "grid-step-thirds",
        "count-zero", "one-seed", "repeated-seeds", "synth-seed",
        "synth-centroid-seed", "train-video-seed", "train-audio-seed",
        "ensemble-seed", "cross-validate-seed", "recipe-seed", "repeat-seeds",
        "synth-margin-inf", "synth-margin-nan", "synth-noise-inf",
        "synth-av-noise-negative"])
def test_bad_flag_value_is_a_usage_error(workdir, capsys, command, message):
    argv = [str(workdir / a) if a.endswith((".json", ".jsonl", ".csv"))
            else a for a in command]
    before = sorted(p.name for p in workdir.iterdir())
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert sorted(p.name for p in workdir.iterdir()) == before


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


# every subcommand, with inputs that exist and an --out to be appended
OUT_COMMANDS = {
    "synth": ["synth", "--seed", "0"],
    "validate": ["validate", "--manifest", "data.jsonl"],
    "train-video": ["train-video", "--manifest", "data.jsonl",
                    "--config", "fast.cfg", "--pooling", "lstm"],
    "train-audio": ["train-audio", "--manifest", "data.jsonl",
                    "--config", "fast.cfg", "--model", "forest"],
    "predict": ["predict", "--model", "video.json",
                "--manifest", "data.jsonl"],
    "fuse": ["fuse", "--scores", "video.csv", "video.csv"],
    "learn-fusion": ["learn-fusion", "--scores", "video.csv", "video.csv",
                     "--manifest", "data.jsonl"],
    "ensemble": ["ensemble", "--manifest", "data.jsonl",
                 "--config", "fast.cfg", "--count", "2"],
    "evaluate": ["evaluate", "--scores", "video.csv",
                 "--manifest", "data.jsonl"],
    "cross-validate": ["cross-validate", "--manifest", "data.jsonl",
                       "--config", "fast.cfg", "--folds", "2"],
    "repeat": ["repeat", "--manifest", "data.jsonl", "--config", "fast.cfg",
               "--seeds", "1", "2"],
    "recipe": ["recipe", "--preset", "submission1",
               "--manifest", "data.jsonl", "--config", "fast.cfg"],
}


def test_out_commands_cover_every_subcommand_with_an_out():
    assert set(OUT_COMMANDS) == {
        command for command, options in HELP_OPTIONS.items()
        if "--out" in options}


def _never_train(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("trained although --out cannot be written")

    for module, name in ((cli, "train_video_model"),
                         (cli, "train_audio_model"),
                         (recipes, "train_video_models"),
                         (recipes, "train_audio_models")):
        monkeypatch.setattr(module, name, never)


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.mark.parametrize("bad, code, error", [
    ("missing/out.csv", 1, "cannot write {out}: No such file or directory"),
    ("data.jsonl/out.csv", 1, "cannot write {out}: Not a directory"),
    ("taken", 1, "cannot write {out}: Is a directory"),
    ("sidecar.csv", 1, "cannot write {out}.manifest.json: Is a directory"),
    (None, 2, "--out must name a file, got ''"),
], ids=["missing-dir", "parent-is-a-file", "out-is-a-dir",
        "sidecar-is-a-dir", "empty"])
@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_unwritable_out_fails_before_any_work(
        workdir, capsys, monkeypatch, command, bad, code, error):
    monkeypatch.chdir(workdir)
    assert main(["train-video", "--manifest", "data.jsonl", "--config",
                 "fast.cfg", "--pooling", "avg-pool",
                 "--out", "video.json"]) == 0
    assert main(["predict", "--model", "video.json", "--manifest",
                 "data.jsonl", "--out", "video.csv"]) == 0
    (workdir / "taken").mkdir()
    (workdir / "sidecar.csv.manifest.json").mkdir()
    capsys.readouterr()
    _never_train(monkeypatch)
    before = _tree(workdir)
    out = "" if bad is None else str(workdir / bad)
    assert main(OUT_COMMANDS[command] + ["--out", out]) == code
    assert capsys.readouterr().err.splitlines() == [
        "error: " + error.format(out=out)]
    assert _tree(workdir) == before


@pytest.mark.parametrize("argv, flag", [
    (["train-video", "--manifest", "data.jsonl", "--config", "",
      "--out", "out"], "config"),
    (["evaluate", "--scores", "s.csv", "--manifest", "data.jsonl",
      "--dist", ""], "dist"),
    (["train-audio", "--manifest", "data.jsonl", "--config", "fast.cfg",
      "--pretrain", "", "--out", "out"], "pretrain"),
    (["recipe", "--preset", "submission1", "--recipe", "", "--manifest",
      "data.jsonl", "--config", "fast.cfg", "--out", "out"], "recipe"),
    (["validate", "--manifest", ""], "manifest"),
    (["predict", "--model", "", "--manifest", "data.jsonl", "--out", "out"],
     "model"),
    (["fuse", "--scores", "s.csv", "", "--out", "out"], "scores"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_an_empty_file_flag_is_a_usage_error(workdir, capsys, monkeypatch,
                                             argv, flag):
    monkeypatch.chdir(workdir)
    ids = [json.loads(line)["id"]
           for line in (workdir / "data.jsonl").read_text().splitlines()]
    (workdir / "s.csv").write_text("clip_id,p0,p1,p2\n"
                                   + "".join(f"{i},1,0,0\n" for i in ids))
    capsys.readouterr()
    before = _tree(workdir)
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --{flag} must name a file, got ''"]
    assert _tree(workdir) == before


@pytest.mark.parametrize("argv, flag, path, target", [
    (["predict", "--model", "video.json", "--manifest", "data.jsonl",
      "--out", "data.jsonl"], "manifest", "data.jsonl", "data.jsonl"),
    (["predict", "--model", "video.json", "--manifest", "data.jsonl",
      "--out", "./video.json"], "model", "video.json", "./video.json"),
    (["evaluate", "--scores", "video.csv", "--manifest", "data.jsonl",
      "--out", "video.csv"], "scores", "video.csv", "video.csv"),
    (["evaluate", "--scores", "video.csv", "--manifest", "data.jsonl",
      "--dist", "dist.csv", "--out", "dist.csv"], "dist", "dist.csv",
     "dist.csv"),
    (["train-video", "--manifest", "data.jsonl", "--config", "fast.cfg",
      "--out", "fast.cfg"], "config", "fast.cfg", "fast.cfg"),
    (["train-audio", "--manifest", "data.jsonl", "--model", "mlp",
      "--pretrain", "pre.jsonl", "--out", "pre.jsonl"], "pretrain",
     "pre.jsonl", "pre.jsonl"),
    (["recipe", "--recipe", "my.recipe", "--manifest", "data.jsonl",
      "--out", "my.recipe"], "recipe", "my.recipe", "my.recipe"),
    (["validate", "--manifest", "data.jsonl.manifest.json", "--out",
      "data.jsonl"], "manifest", "data.jsonl.manifest.json",
     "data.jsonl.manifest.json"),
], ids=["manifest", "model", "scores", "dist", "config", "pretrain",
        "recipe", "sidecar"])
def test_out_that_would_overwrite_an_input_fails_before_any_work(
        workdir, capsys, monkeypatch, argv, flag, path, target):
    monkeypatch.chdir(workdir)
    assert main(["train-video", "--manifest", "data.jsonl", "--config",
                 "fast.cfg", "--pooling", "avg-pool",
                 "--out", "video.json"]) == 0
    assert main(["predict", "--model", "video.json", "--manifest",
                 "data.jsonl", "--out", "video.csv"]) == 0
    (workdir / "dist.csv").write_text("class,count\nclass0,1\n")
    (workdir / "pre.jsonl").write_bytes((workdir / "data.jsonl").read_bytes())
    (workdir / "my.recipe").write_text("not read\n")
    capsys.readouterr()
    _never_train(monkeypatch)
    before = _tree(workdir)
    kept = (workdir / path).read_bytes()
    assert main(argv) == 2
    name = "--out" if target == argv[-1] else "the run manifest"
    assert capsys.readouterr().err.splitlines() == [
        f"error: {name} {target} would overwrite --{flag} {path}"]
    assert (workdir / path).read_bytes() == kept
    assert _tree(workdir) == before


def test_a_model_kind_is_no_input_file(workdir, monkeypatch):
    # outside predict, --model names a kind, not a checkpoint to read
    monkeypatch.chdir(workdir)
    (workdir / "forest").write_text("an earlier output\n")
    assert main(["train-audio", "--manifest", "data.jsonl", "--config",
                 "fast.cfg", "--model", "forest", "--out", "forest"]) == 0
    assert (workdir / "forest").read_text().startswith("{")


def _stand_in_packaged_dist(workdir, monkeypatch):
    """A 3-class copy that a bare ``--dist afew_test_dist.csv`` falls back
    to, so that no test writes into the package."""
    packaged = workdir / "package" / "afew_test_dist.csv"
    packaged.parent.mkdir()
    packaged.write_text("class,count\nclass0,1\nclass1,2\nclass2,3\n")
    monkeypatch.setattr(cli, "packaged_distribution_path",
                        lambda name: str(packaged.parent / name))
    return packaged


def test_out_that_would_overwrite_the_packaged_dist_fails(
        workdir, capsys, monkeypatch):
    # a bare --dist name that does not exist reads the packaged file, so
    # that is the file an --out must spare
    packaged = _stand_in_packaged_dist(workdir, monkeypatch)
    monkeypatch.chdir(workdir)
    assert main(["train-video", "--manifest", "data.jsonl", "--config",
                 "fast.cfg", "--pooling", "avg-pool",
                 "--out", "video.json"]) == 0
    assert main(["predict", "--model", "video.json", "--manifest",
                 "data.jsonl", "--out", "video.csv"]) == 0
    capsys.readouterr()
    kept = packaged.read_bytes()
    assert main(["evaluate", "--scores", "video.csv", "--manifest",
                 "data.jsonl", "--dist", "afew_test_dist.csv",
                 "--out", str(packaged)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out {packaged} would overwrite --dist {packaged}"]
    assert packaged.read_bytes() == kept
    assert not Path(f"{packaged}.manifest.json").exists()


# every subcommand with an --out, given every input flag it takes in an
# order that is not INPUT_FLAGS', and the inputs its run manifest records:
# INPUT_FLAGS order, with --dist as the file read
SIDECAR_INPUTS = {
    "synth": (["synth", "--seed", "0"], []),
    "validate": (["validate", "--manifest", "data.jsonl"], ["data.jsonl"]),
    "train-video": (["train-video", "--config", "fast.cfg", "--manifest",
                     "data.jsonl", "--pooling", "avg-pool"],
                    ["data.jsonl", "fast.cfg"]),
    "train-audio": (["train-audio", "--pretrain", "pre.jsonl", "--config",
                     "fast.cfg", "--model", "mlp", "--manifest",
                     "data.jsonl"], ["data.jsonl", "fast.cfg", "pre.jsonl"]),
    "predict": (["predict", "--manifest", "data.jsonl", "--model",
                 "video.json"], ["data.jsonl", "video.json"]),
    "fuse": (["fuse", "--scores", "video.csv", "video.csv"],
             ["video.csv", "video.csv"]),
    "learn-fusion": (["learn-fusion", "--scores", "video.csv", "video.csv",
                      "--manifest", "data.jsonl"],
                     ["data.jsonl", "video.csv", "video.csv"]),
    "ensemble": (["ensemble", "--config", "fast.cfg", "--manifest",
                  "data.jsonl", "--count", "2"], ["data.jsonl", "fast.cfg"]),
    "evaluate": (["evaluate", "--dist", "afew_test_dist.csv", "--scores",
                  "video.csv", "--manifest", "data.jsonl"],
                 ["data.jsonl", "video.csv", "package/afew_test_dist.csv"]),
    "cross-validate": (["cross-validate", "--config", "fast.cfg",
                        "--manifest", "data.jsonl", "--folds", "2"],
                       ["data.jsonl", "fast.cfg"]),
    "repeat": (["repeat", "--config", "fast.cfg", "--manifest",
                "data.jsonl", "--seeds", "1", "2"],
               ["data.jsonl", "fast.cfg"]),
    "recipe": (["recipe", "--pretrain", "pre.jsonl", "--recipe",
                "my.recipe", "--config", "fast.cfg", "--manifest",
                "data.jsonl"],
               ["data.jsonl", "fast.cfg", "my.recipe", "pre.jsonl"]),
}


def test_sidecar_inputs_cover_every_subcommand_with_an_out():
    assert set(SIDECAR_INPUTS) == set(OUT_COMMANDS)


@pytest.mark.parametrize("command", list(SIDECAR_INPUTS))
def test_run_manifest_records_inputs_in_input_flags_order(
        workdir, capsys, monkeypatch, command):
    packaged = _stand_in_packaged_dist(workdir, monkeypatch)
    monkeypatch.chdir(workdir)
    assert main(["train-video", "--manifest", "data.jsonl", "--config",
                 "fast.cfg", "--pooling", "avg-pool",
                 "--out", "video.json"]) == 0
    assert main(["predict", "--model", "video.json", "--manifest",
                 "data.jsonl", "--out", "video.csv"]) == 0
    (workdir / "pre.jsonl").write_bytes((workdir / "data.jsonl").read_bytes())
    (workdir / "my.recipe").write_text("video = avg-pool\naudio = mlp\n")
    argv, inputs = SIDECAR_INPUTS[command]
    assert main(argv + ["--out", "result"]) == 0
    capsys.readouterr()
    manifest = json.loads((workdir / "result.manifest.json").read_text())
    assert manifest["inputs"] == [
        str(packaged) if path.startswith("package/") else path
        for path in inputs]
    assert manifest["outputs"] == ["result"]


def test_evaluate_names_a_split_without_labeled_clips(
        workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    records = [json.loads(line) for line in
               (workdir / "data.jsonl").read_text().splitlines()]
    (workdir / "data.jsonl").write_text("".join(
        json.dumps(dict(r, label=None) if r["split"] == "test" else r)
        + "\n" for r in records))
    assert main(["train-video", "--manifest", "data.jsonl", "--config",
                 "fast.cfg", "--pooling", "avg-pool",
                 "--out", "video.json"]) == 0
    for split in ("all", "test"):
        assert main(["predict", "--model", "video.json", "--manifest",
                     "data.jsonl", "--split", split,
                     "--out", f"{split}.csv"]) == 0
    capsys.readouterr()
    # the table covers every clip, but the split has no labels to score
    assert main(["evaluate", "--scores", "all.csv", "--manifest",
                 "data.jsonl", "--split", "test"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: split 'test' has no labeled clips"]
    # without --split, the table's coverage is what holds no labels
    assert main(["evaluate", "--scores", "test.csv", "--manifest",
                 "data.jsonl"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: score table covers no labeled clips"]


@pytest.mark.parametrize("train", [
    ["train-video", "--pooling", "lstm"],
    ["train-video", "--pooling", "score-mean"],
    ["train-audio", "--model", "mlp"],
    ["train-audio", "--model", "forest"],
], ids=["lstm", "score-mean", "mlp", "forest"])
def test_train_records_the_val_accuracy_that_predict_gives(
        tmp_path, capsys, train):
    m = str(tmp_path / "data.jsonl")
    ckpt = str(tmp_path / "model.json")
    # noisy, so some val clips are misclassified
    assert main(SYNTH + ["--margin", "0.5", "--noise", "1.0",
                         "--val-per-class", "5", "--out", m]) == 0
    (tmp_path / "fast.cfg").write_text(FAST_CFG)
    argv = train + ["--manifest", m, "--config", str(tmp_path / "fast.cfg"),
                    "--out", ckpt]
    key = "final_epoch" if train[0] == "train-video" else "log"
    assert main(argv) == 0
    logged = json.loads(Path(ckpt + ".manifest.json").read_text())[
        "extra"][key]["val_accuracy"]
    report = str(tmp_path / "report.csv")
    assert main(["predict", "--model", ckpt, "--manifest", m, "--split",
                 "val", "--out", str(tmp_path / "val.csv")]) == 0
    assert main(["evaluate", "--scores", str(tmp_path / "val.csv"),
                 "--manifest", m, "--out", report]) == 0
    overall = next(line.split(",") for line in
                   Path(report).read_text().splitlines()
                   if line.startswith("overall,"))
    assert 0 < logged < 1
    assert logged == float(overall[1])  # at full precision
    assert f"val accuracy: {logged:.4f}\n" in capsys.readouterr().out

    # no labeled val clips: nothing to score
    records = [json.loads(line) for line in Path(m).read_text().splitlines()]
    Path(m).write_text("".join(
        json.dumps(dict(r, label=None) if r["split"] == "val" else r) + "\n"
        for r in records))
    assert main(argv) == 0
    assert json.loads(Path(ckpt + ".manifest.json").read_text())[
        "extra"][key]["val_accuracy"] is None
    assert capsys.readouterr().out.endswith("; val accuracy: n/a\n")


@pytest.mark.parametrize("clip_id", ["a,b", "a\nb", "a\u2028b"])
@pytest.mark.parametrize("command", ["validate", "ensemble", "recipe"])
def test_an_id_no_table_can_hold_fails_at_load(workdir, capsys, monkeypatch,
                                               command, clip_id):
    monkeypatch.chdir(workdir)
    records = [json.loads(line) for line in
               (workdir / "data.jsonl").read_text().splitlines()]
    records[3]["id"] = clip_id
    (workdir / "data.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records))
    _never_train(monkeypatch)
    before = _tree(workdir)
    assert main(OUT_COMMANDS[command] + ["--out", "out.csv"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: clip {clip_id!r}: a score table cannot hold an id with a "
        f"comma or a line break"]
    assert _tree(workdir) == before


def test_validate_rejects_an_id_with_a_lone_surrogate(workdir, capsys):
    m = workdir / "data.jsonl"
    records = [json.loads(line) for line in m.read_text().splitlines()]
    records[3]["id"] = "a\ud800"
    m.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert "\\ud800" in m.read_text()  # JSON spells it as an escape
    assert main(["validate", "--manifest", str(m)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: clip 'a\\ud800': a score table cannot hold an id with a "
        "lone surrogate"]


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


def test_cli_import_loads_no_module_it_never_uses():
    # weighted accuracy and distribution files import these where used, and
    # SMALLCLIP_LOG's lines need no logging
    loaded = _fresh(["-c", "import sys, smallclip.cli; print(*sorted("
                     "{'fractions', 'decimal', 'csv', 'logging'} "
                     "& set(sys.modules)))"])
    assert loaded.split() == []


@pytest.mark.parametrize("argv, loaded", [
    (["validate", "--manifest", "data.jsonl"], []),
    (["recipe", "--preset", "submission1", "--manifest", "data.jsonl",
      "--config", "fast.cfg", "--out", "r.csv"], ["smallclip.recipes"]),
], ids=["validate", "recipe"])
def test_a_command_loads_recipes_and_synth_only_where_used(workdir, argv,
                                                           loaded):
    out = _fresh(["-c", "import sys, smallclip.cli as cli; "
                  "code = cli.main(sys.argv[1:]); print(code, *sorted("
                  "{'smallclip.recipes', 'smallclip.synth'} "
                  "& set(sys.modules)))", *argv], cwd=workdir)
    assert out.splitlines()[-1].split() == ["0", *loaded]


def test_a_command_run_as_smallclip_loads_no_logging(workdir):
    out = _fresh(["-c", "import sys, smallclip.cli as cli; code = cli.run(); "
                  "print(code, 'logging' in sys.modules)",
                  "validate", "--manifest", str(workdir / "data.jsonl")])
    assert out.split()[-2:] == ["0", "False"]


@pytest.mark.parametrize("level", [None, "error", "info", "debug", "DEBUG",
                                   "verbose"])
def test_smallclip_log_adds_stderr_lines_only(workdir, capsys, monkeypatch,
                                              level):
    m, out = str(workdir / "data.jsonl"), str(workdir / "v.txt")
    runs = [(["validate", "--manifest", m, "--out", out], 0, None),
            (["validate", "--manifest", str(workdir / "gone.jsonl")], 1,
             "runtime error"),
            (["ensemble", "--manifest", m, "--count", "0", "--out", out], 2,
             "usage error")]
    monkeypatch.delenv("SMALLCLIP_LOG", raising=False)
    unset = []
    for argv, code, _ in runs:
        assert main(argv) == code
        unset.append(capsys.readouterr())
    assert unset[0].err == ""
    assert all(len(got.err.splitlines()) == 1 for got in unset[1:])
    if level is not None:
        monkeypatch.setenv("SMALLCLIP_LOG", level)
    wanted = level.lower() if level in ("info", "debug", "DEBUG") else "error"
    for (argv, code, event), quiet in zip(runs, unset):
        assert main(argv) == code
        got = capsys.readouterr()
        assert got.out == quiet.out
        if event is None:  # any other value means error, which adds nothing
            assert got.err == ("" if wanted == "error" else
                               f"INFO smallclip: wrote {out}.manifest.json\n")
        elif wanted == "debug":  # the traceback, then the one error: line
            head = (f"DEBUG smallclip: {event}\n"
                    "Traceback (most recent call last):\n")
            assert got.err.startswith(head) and got.err.endswith(quiet.err)
            assert "smallclip.errors." in got.err
        else:
            assert got.err == quiet.err


def test_run_freezes_the_collector_and_main_leaves_it_alone(workdir):
    m = str(workdir / "data.jsonl")
    before = gc.get_freeze_count()
    assert main(["validate", "--manifest", m]) == 0
    assert gc.get_freeze_count() == before
    # run() returns main's exit code, with start-up's objects frozen
    out = _fresh(["-c", "import gc, sys, smallclip.cli as cli; "
                  "code = cli.run(); print(code, gc.get_freeze_count())",
                  "validate", "--manifest", m])
    code, frozen = out.split()[-2:]
    assert code == "0" and int(frozen) > 0


def test_run_blocks_openssl_and_main_leaves_hashlib_alone(workdir):
    m, cfg = str(workdir / "data.jsonl"), str(workdir / "fast.cfg")
    train = ["train-video", "--manifest", m, "--config", cfg, "--pooling",
             "lstm", "--out", str(workdir / "v.json")]
    before = ("_hashlib" in sys.modules, sys.modules.get("_hashlib"))
    assert main(train) == 0
    assert ("_hashlib" in sys.modules, sys.modules.get("_hashlib")) == before
    # run() trains with numpy.random loaded, yet hashlib runs on its
    # builtin digests and OpenSSL's libcrypto is never mapped
    out = _fresh(["-c", "import sys, smallclip.cli as cli; "
                  "code = cli.run(); import hashlib; "
                  "maps = (open('/proc/self/maps').read() "
                  "if sys.platform.startswith('linux') else ''); "
                  "print(code, 'numpy.random' in sys.modules, "
                  "sys.modules['_hashlib'] is None, "
                  "hashlib.sha256(b'abc').hexdigest(), 'libcrypto' in maps)",
                  *train])
    assert out.split()[-5:] == [
        "0", "True", "True",
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        "False"]


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


# -- the command-line surface --------------------------------------------------

# Each subcommand's argv with its required flags only and with every optional
# flag, and the namespace the parser gave for it before the shared flags were
# declared once (parents=) and the handlers bound with set_defaults.
NAMESPACES = {
    "validate": [
        (["--manifest", "m"],
         {"command": "validate", "manifest": "m", "out": None}),
        (["--manifest", "m", "--out", "o"],
         {"command": "validate", "manifest": "m", "out": "o"})],
    "train-video": [
        (["--manifest", "m", "--out", "o"],
         {"command": "train-video", "manifest": "m", "config": None,
          "pooling": None, "seed": 0, "out": "o"}),
        (["--manifest", "m", "--config", "c", "--pooling", "lstm",
          "--seed", "3", "--out", "o"],
         {"command": "train-video", "manifest": "m", "config": "c",
          "pooling": "lstm", "seed": 3, "out": "o"})],
    "train-audio": [
        (["--manifest", "m", "--out", "o"],
         {"command": "train-audio", "manifest": "m", "config": None,
          "model": None, "pretrain": None, "seed": 0, "out": "o"}),
        (["--manifest", "m", "--config", "c", "--model", "forest",
          "--pretrain", "p", "--seed", "3", "--out", "o"],
         {"command": "train-audio", "manifest": "m", "config": "c",
          "model": "forest", "pretrain": "p", "seed": 3, "out": "o"})],
    "predict": [
        (["--model", "k", "--manifest", "m", "--out", "o"],
         {"command": "predict", "model": "k", "manifest": "m",
          "split": "all", "jobs": 1, "out": "o"}),
        (["--model", "k", "--manifest", "m", "--split", "val", "--jobs", "2",
          "--out", "o"],
         {"command": "predict", "model": "k", "manifest": "m",
          "split": "val", "jobs": 2, "out": "o"})],
    "fuse": [
        (["--scores", "a", "b", "--out", "o"],
         {"command": "fuse", "scores": ["a", "b"], "weights": None,
          "out": "o"}),
        (["--scores", "a", "b", "--weights", "0.3", "0.7", "--out", "o"],
         {"command": "fuse", "scores": ["a", "b"], "weights": [0.3, 0.7],
          "out": "o"})],
    "learn-fusion": [
        (["--scores", "a", "b", "--manifest", "m"],
         {"command": "learn-fusion", "scores": ["a", "b"], "manifest": "m",
          "grid_step": None, "out": None}),
        (["--scores", "a", "b", "--manifest", "m", "--grid-step", "0.1",
          "--out", "o"],
         {"command": "learn-fusion", "scores": ["a", "b"], "manifest": "m",
          "grid_step": 0.1, "out": "o"})],
    "ensemble": [
        (["--manifest", "m", "--out", "o"],
         {"command": "ensemble", "manifest": "m", "config": None,
          "modality": "video", "pooling": None, "model": None, "count": 4,
          "seed": 0, "jobs": 1, "out": "o"}),
        (["--manifest", "m", "--config", "c", "--modality", "audio",
          "--pooling", "lstm", "--model", "mlp", "--count", "3", "--seed",
          "2", "--jobs", "2", "--out", "o"],
         {"command": "ensemble", "manifest": "m", "config": "c",
          "modality": "audio", "pooling": "lstm", "model": "mlp",
          "count": 3, "seed": 2, "jobs": 2, "out": "o"})],
    "evaluate": [
        (["--scores", "s", "--manifest", "m"],
         {"command": "evaluate", "scores": "s", "manifest": "m",
          "split": None, "dist": None, "out": None}),
        (["--scores", "s", "--manifest", "m", "--split", "val", "--dist",
          "d", "--out", "o"],
         {"command": "evaluate", "scores": "s", "manifest": "m",
          "split": "val", "dist": "d", "out": "o"})],
    "cross-validate": [
        (["--manifest", "m"],
         {"command": "cross-validate", "manifest": "m", "config": None,
          "folds": 5, "modality": "video", "pooling": None, "model": None,
          "seed": 0, "jobs": 1, "out": None}),
        (["--manifest", "m", "--config", "c", "--folds", "3", "--modality",
          "audio", "--pooling", "avg-pool", "--model", "forest", "--seed",
          "2", "--jobs", "2", "--out", "o"],
         {"command": "cross-validate", "manifest": "m", "config": "c",
          "folds": 3, "modality": "audio", "pooling": "avg-pool",
          "model": "forest", "seed": 2, "jobs": 2, "out": "o"})],
    "repeat": [
        (["--manifest", "m", "--seeds", "1", "2"],
         {"command": "repeat", "manifest": "m", "config": None,
          "modality": "video", "pooling": None, "model": None,
          "seeds": [1, 2], "jobs": 1, "out": None}),
        (["--manifest", "m", "--config", "c", "--modality", "audio",
          "--pooling", "score-mean", "--model", "mlp", "--seeds", "4", "5",
          "6", "--jobs", "2", "--out", "o"],
         {"command": "repeat", "manifest": "m", "config": "c",
          "modality": "audio", "pooling": "score-mean", "model": "mlp",
          "seeds": [4, 5, 6], "jobs": 2, "out": "o"})],
    "recipe": [
        (["--manifest", "m", "--out", "o"],
         {"command": "recipe", "preset": None, "recipe": None,
          "manifest": "m", "config": None, "pretrain": None, "seed": 0,
          "jobs": 1, "out": "o"}),
        (["--preset", "submission1", "--recipe", "r", "--manifest", "m",
          "--config", "c", "--pretrain", "p", "--seed", "2", "--jobs", "2",
          "--out", "o"],
         {"command": "recipe", "preset": "submission1", "recipe": "r",
          "manifest": "m", "config": "c", "pretrain": "p", "seed": 2,
          "jobs": 2, "out": "o"})],
}


@pytest.mark.parametrize("command, flags, expected", [
    (command, flags, expected)
    for command, cases in NAMESPACES.items() for flags, expected in cases],
    ids=[f"{command}-{kind}" for command in NAMESPACES
         for kind in ("required", "every-flag")])
def test_argv_parses_to_the_same_namespace(command, flags, expected):
    # the full parser and the one that main builds for the command alone
    for parser in (cli.build_parser(), cli.build_parser(command)):
        parsed = vars(parser.parse_args([command, *flags]))
        handler = parsed.pop("handler")
        assert parsed == expected
        assert handler is getattr(cli, "_cmd_" + command.replace("-", "_"))


def test_a_parser_built_for_one_command_has_no_other_commands_flags(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser("validate").parse_args(
            ["fuse", "--scores", "a", "--out", "o"])
    assert capsys.readouterr().err.endswith(
        "error: unrecognized arguments: --scores a --out o\n")


@pytest.mark.parametrize("argv", [
    ["-h"], *[[command, "-h"] for command in cli.COMMANDS], ["bogus"],
    ["validate", "--nope"], ["train-video", "--manifest", "m"]],
    ids=["top-level-help", *[f"{command}-help" for command in cli.COMMANDS],
         "unknown-command", "unknown-flag", "missing-required-flag"])
def test_main_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    code = main(argv)
    narrow = capsys.readouterr()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert main(argv) == code == (0 if "-h" in argv else 2)
    assert capsys.readouterr() == narrow


# synth's flags name SynthConfig fields, so its namespace changed; the
# config it builds did not
@pytest.mark.parametrize("flags, expected", [
    ([], {"av_noise": 0.1, "centroid_seed": None, "d_audio": 64,
          "d_feature": 32, "frames_max": 18, "frames_min": 6, "margin": 5.0,
          "n_classes": 7, "noise": 0.1, "test_per_class": 0,
          "train_per_class": 20, "val_per_class": 10, "with_audio": True}),
    (["--classes", "3", "--clips-per-class", "4", "--val-per-class", "2",
      "--test-per-class", "1", "--frames-min", "2", "--frames-max", "5",
      "--d-feature", "6", "--d-audio", "7", "--no-audio", "--margin", "2",
      "--noise", "0.3", "--av-noise", "0.2", "--centroid-seed", "4"],
     {"av_noise": 0.2, "centroid_seed": 4, "d_audio": 7, "d_feature": 6,
      "frames_max": 5, "frames_min": 2, "margin": 2.0, "n_classes": 3,
      "noise": 0.3, "test_per_class": 1, "train_per_class": 4,
      "val_per_class": 2, "with_audio": False}),
], ids=["defaults", "every-flag"])
def test_synth_flags_build_the_same_config(tmp_path, capsys, flags,
                                           expected):
    out = tmp_path / "s.jsonl"
    assert main(["synth", *flags, "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "s.jsonl.manifest.json").read_text())
    assert manifest["config"] == expected
    assert manifest["seeds"] == [1]


def test_manifest_records_the_argv_main_was_given(tmp_path, capsys,
                                                  monkeypatch):
    # an in-process call under a host whose own command line differs
    monkeypatch.setattr(sys, "argv", ["-", "extra", "args", "here"])
    argv = SYNTH + ["--out", str(tmp_path / "s.jsonl")]
    assert main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "s.jsonl.manifest.json").read_text())
    assert manifest["argv"] == argv


HELP_OPTIONS = {
    "synth": ["--av-noise", "--centroid-seed", "--classes",
              "--clips-per-class", "--d-audio", "--d-feature", "--frames-max",
              "--frames-min", "--margin", "--no-audio", "--noise", "--out",
              "--seed", "--test-per-class", "--val-per-class"],
    "validate": ["--manifest", "--out"],
    "train-video": ["--config", "--manifest", "--out", "--pooling", "--seed"],
    "train-audio": ["--config", "--manifest", "--model", "--out",
                    "--pretrain", "--seed"],
    "predict": ["--jobs", "--manifest", "--model", "--out", "--split"],
    "fuse": ["--out", "--scores", "--weights"],
    "learn-fusion": ["--grid-step", "--manifest", "--out", "--scores"],
    "ensemble": ["--config", "--count", "--jobs", "--manifest", "--modality",
                 "--model", "--out", "--pooling", "--seed"],
    "evaluate": ["--dist", "--manifest", "--out", "--scores", "--split"],
    "cross-validate": ["--config", "--folds", "--jobs", "--manifest",
                       "--modality", "--model", "--out", "--pooling",
                       "--seed"],
    "repeat": ["--config", "--jobs", "--manifest", "--modality", "--model",
               "--out", "--pooling", "--seeds"],
    "recipe": ["--config", "--jobs", "--manifest", "--out", "--preset",
               "--pretrain", "--recipe", "--seed"],
}


@pytest.mark.parametrize("command", list(HELP_OPTIONS))
def test_subcommand_help_lists_its_options(capsys, command):
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    listed = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text))
    assert listed == {"-h", "--help", *HELP_OPTIONS[command]}


# -- one rule for every score table --------------------------------------------

ROW_RULE = "rows must be finite and nonnegative with a positive sum"


def _table_with_row(workdir, name, row, at=2):
    """A score table over every clip of the workdir manifest, one-hot except
    for row ``at``, which holds ``row``; returns (path, that row's id)."""
    ids = [json.loads(line)["id"]
           for line in (workdir / "data.jsonl").read_text().splitlines()]
    path = workdir / name
    path.write_text("clip_id,p0,p1,p2\n" + "".join(
        f"{cid},{row if i == at else '1,0,0'}\n" for i, cid in enumerate(ids)))
    return path, ids[at]


@pytest.mark.parametrize("row, fault", [("nan,0.5,0.5", "non-finite"),
                                        ("-5,1,1", "negative"),
                                        ("0,0,0", "all-zero")],
                         ids=["nan", "negative", "zero-sum"])
def test_evaluate_rejects_a_bad_score_row(workdir, capsys, row, fault):
    bad, cid = _table_with_row(workdir, "bad.csv", row)
    out = workdir / "report.csv"
    assert main(["evaluate", "--scores", str(bad), "--manifest",
                 str(workdir / "data.jsonl"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == \
        [f"error: {bad}: clip {cid!r}: {fault} scores ({ROW_RULE})"]
    assert not out.exists()


def test_learn_fusion_rejects_a_nan_table(workdir, capsys):
    bad, cid = _table_with_row(workdir, "nan.csv", "nan,0,1")
    good, _ = _table_with_row(workdir, "good.csv", "0,1,0")
    out = workdir / "fusion.json"
    assert main(["learn-fusion", "--scores", str(good), str(bad),
                 "--manifest", str(workdir / "data.jsonl"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == \
        [f"error: {bad}: clip {cid!r}: non-finite scores ({ROW_RULE})"]
    assert not out.exists()


def test_predict_with_a_nan_weight_writes_nothing(workdir, capsys):
    m = str(workdir / "data.jsonl")
    ckpt = workdir / "video.json"
    assert main(["train-video", "--manifest", m, "--config",
                 str(workdir / "fast.cfg"), "--pooling", "avg-pool",
                 "--out", str(ckpt)]) == 0
    obj = checkpoint_as_version(json.loads(ckpt.read_text()), 1)
    name, param = next(iter(obj["params"].items()))
    param["data"][0] = float("nan")
    ckpt.write_text(json.dumps(obj))
    capsys.readouterr()
    out = workdir / "scores.csv"
    assert main(["predict", "--model", str(ckpt), "--manifest", m,
                 "--out", str(out)]) == 1
    # caught on load, naming the parameter rather than a clip's scores
    assert capsys.readouterr().err.splitlines() == [
        f"error: malformed checkpoint: parameter {name!r}: data must be "
        f"finite and in range"]
    assert not out.exists()


def _set_params(value, prefix=""):
    """An edit that sets every value of the parameters named ``prefix...``
    in a checkpoint's version-1 form to ``value``."""
    def edit(obj):
        obj = checkpoint_as_version(obj, 1)
        names = [name for name in obj["params"] if name.startswith(prefix)]
        assert names
        for name in names:
            param = obj["params"][name]
            param["data"] = [value] * len(param["data"])
        return obj
    return edit


@pytest.mark.parametrize("train, edit", [
    (["train-audio", "--model", "mlp"], _set_params(1e300)),
    (["train-video", "--pooling", "weighted-avg-pool"],
     _set_params(-1e300, "regressor.")),
], ids=["mlp-1e300", "weighted-avg-pool-regressor--1e300"])
def test_predict_with_extreme_weights_prints_one_error_line(
        workdir, capsys, train, edit):
    # finite weights whose scores overflow: no numpy warning comes before
    # the score table's error line
    m = str(workdir / "data.jsonl")
    ckpt = workdir / "model.json"
    assert main(train + ["--manifest", m, "--config",
                         str(workdir / "fast.cfg"), "--out", str(ckpt)]) == 0
    ckpt.write_text(json.dumps(edit(json.loads(ckpt.read_text()))))
    capsys.readouterr()
    out = workdir / "scores.csv"
    assert main(["predict", "--model", str(ckpt), "--manifest", m,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "non-finite scores" in err[0]
    assert not out.exists()


# -- forest checkpoints are checked before use ---------------------------------

def _break_tree(tree, meta, edit):
    """Break one node of a forest checkpoint's tree, one way per ``edit``."""
    if edit == "backward-child":      # back to the root: the walk never ends
        tree["left"]["data"][0] = 0
    elif edit == "child-out-of-range":
        tree["left"]["data"][0] = 10 ** 6
    elif edit == "feature-out-of-range":
        tree["feature"]["data"][0] = meta["d_audio"]
    else:                             # a leaf that counts no clip
        c, leaf = meta["n_classes"], tree["feature"]["data"].index(-1)
        tree["hist"]["data"][leaf * c:(leaf + 1) * c] = [0] * c


TREE_EDITS = pytest.mark.parametrize("edit", [
    "backward-child", "child-out-of-range", "feature-out-of-range",
    "zero-leaf"])


def _predict_broken_forest(workdir, edit, version):
    """Train a forest, break its tree 0 by ``edit`` in the version-1 form,
    save it as ``version`` and run ``predict`` from it in a fresh process
    with a time limit, so a walk that never ends fails the test instead of
    stalling the suite."""
    m = str(workdir / "data.jsonl")
    ckpt = workdir / "audio.json"
    assert main(["train-audio", "--manifest", m, "--config",
                 str(workdir / "fast.cfg"), "--model", "forest",
                 "--out", str(ckpt)]) == 0
    obj = checkpoint_as_version(json.loads(ckpt.read_text()), 1)
    tree = obj["extra"]["trees"][0]
    assert tree["feature"]["data"][0] != -1   # the root splits
    _break_tree(tree, obj["meta"], edit)
    ckpt.write_text(json.dumps(checkpoint_as_version(obj, version)))
    out = workdir / "scores.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-m", "smallclip.cli", "predict", "--model",
         str(ckpt), "--manifest", m, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    err = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert len(err) == 1
    assert err[0].startswith("error: malformed checkpoint: tree 0: ")
    assert not out.exists()


@TREE_EDITS
def test_malformed_forest_checkpoint_exits_one(workdir, capsys, edit):
    _predict_broken_forest(workdir, edit, 1)


@TREE_EDITS
def test_malformed_version2_forest_checkpoint_exits_one(workdir, capsys,
                                                        edit):
    _predict_broken_forest(workdir, edit, 2)


# a forest checkpoint and its ``predict`` table over FIXTURE_SYNTH's clips,
# both written by the code before ``Forest`` checked its own trees (trained
# with n_trees = 7, max_depth = 2 and --seed 3)
DATA = Path(__file__).resolve().parent / "data"
FIXTURE_SYNTH = ["synth", "--classes", "3", "--clips-per-class", "6",
                "--val-per-class", "2", "--test-per-class", "2",
                "--frames-min", "2", "--frames-max", "4",
                "--d-feature", "5", "--d-audio", "6",
                "--margin", "0.3", "--noise", "1.0", "--seed", "4"]


@pytest.mark.parametrize("version", [1, 2])
def test_predict_from_a_stored_forest_checkpoint_is_byte_identical(
        tmp_path, capsys, version):
    m = tmp_path / "data.jsonl"
    assert main(FIXTURE_SYNTH + ["--out", str(m)]) == 0
    ckpt = tmp_path / "forest.json"
    ckpt.write_text(json.dumps(checkpoint_as_version(
        json.loads((DATA / "forest-v2.json").read_text()), version)))
    out = tmp_path / "scores.csv"
    assert main(["predict", "--model", str(ckpt), "--manifest", str(m),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "forest-v2-scores.csv").read_bytes()


# -- video and audio-mlp checkpoints and manifest ids are validated on load ---

def _first_param(obj):
    return next(iter(obj["params"].values()))["data"]


def _nudge_root_feature(obj):
    obj["extra"]["trees"][0]["feature"]["data"][0] += 0.9


def _drop_seed(obj):
    del obj["meta"]["seed"]


# each case edits a checkpoint in the version given, which holds list
# records in version 1 and base64 strings in version 2
@pytest.mark.parametrize("model, version, edit, message", [
    ("video", 2, lambda obj: obj["meta"].update(n="16"),
     'meta n must be an integer >= 1, got "16"'),
    ("video", 2, lambda obj: obj["meta"].update(n=2.5),
     "meta n must be an integer >= 1, got 2.5"),
    ("mlp", 1, lambda obj: obj["extra"].update(
        running_mean={"shape": [1], "data": [0.0]}),
     "running_mean has shape (1,), expected (8,)"),
    ("mlp", 1, lambda obj: obj["extra"]["running_var"]["data"].__setitem__(
        0, -1.0), "running_var must be nonnegative"),
    ("video", 1, lambda obj: _first_param(obj).__setitem__(0, "nan"),
     "parameter 'classifier.W': data must hold JSON numbers"),
    ("video", 1, lambda obj: _first_param(obj).__setitem__(0, True),
     "parameter 'classifier.W': data must hold JSON numbers"),
    ("forest", 1, _nudge_root_feature,
     "tree 0: feature: data must hold JSON integers"),
    ("video", 2, lambda obj: obj["meta"].update(head="bogus"),
     "meta head must be one of score-mean, avg-pool, weighted-avg-pool, "
     'lstm, got "bogus"'),
    ("video", 2, lambda obj: obj["meta"].update(score_mode="bogus"),
     'meta score_mode must be one of probs, logits, got "bogus"'),
    ("mlp", 2, lambda obj: obj["meta"].update(dropout="0.2"),
     'meta dropout must be a number in [0, 1), got "0.2"'),
    ("mlp", 2, lambda obj: obj["meta"].update(dropout=1),
     "meta dropout must be a number in [0, 1), got 1"),
    ("video", 1, lambda obj: obj.update(version=True),
     "version must be an integer, got true"),
    ("forest", 1, lambda obj: obj.update(version=1.0),
     "version must be an integer, got 1.0"),
    ("forest", 2, lambda obj: obj["meta"].update(n_trees=7),
     "meta n_trees must be the number of trees, 5, got 7"),
    ("forest", 2, lambda obj: obj["meta"].update(seed="x"),
     'meta seed must be an integer >= 0, got "x"'),
    ("forest", 2, lambda obj: obj["meta"].update(seed=None),
     "meta seed must be an integer >= 0, got null"),
    ("forest", 2, lambda obj: obj["meta"].update(seed=1.5),
     "meta seed must be an integer >= 0, got 1.5"),
    ("forest", 1, lambda obj: obj["meta"].update(seed=[1]),
     "meta seed must be an integer >= 0, got [1]"),
    ("forest", 2, lambda obj: obj["meta"].update(seed=-1),
     "meta seed must be an integer >= 0, got -1"),
    ("forest", 2, _drop_seed, "'seed'"),
], ids=["n-string", "n-float", "short-running-mean", "negative-running-var",
        "nan-string", "bool-weight", "fractional-feature", "unknown-head",
        "unknown-score-mode", "dropout-string", "dropout-one", "version-true",
        "version-float", "n-trees-mismatch", "seed-string", "seed-null",
        "seed-float", "seed-list", "seed-negative", "seed-missing"])
def test_malformed_checkpoint_exits_one_naming_the_field(
        workdir, capsys, model, version, edit, message):
    def rewrite(obj):
        obj = checkpoint_as_version(obj, version)
        edit(obj)
        return obj
    _predict_from_rewritten(workdir, capsys, model, rewrite, message)


def _predict_from_rewritten(workdir, capsys, model, rewrite, message):
    """Train ``model``, save ``rewrite`` of its checkpoint's JSON object,
    and check that ``predict`` from it exits 1 with the one error line
    ``malformed checkpoint: <message>`` and writes nothing."""
    m = str(workdir / "data.jsonl")
    ckpt = workdir / "model.json"
    train = (["train-video"] if model == "video"
             else ["train-audio", "--model", model])
    assert main(train + ["--manifest", m, "--config",
                         str(workdir / "fast.cfg"), "--out", str(ckpt)]) == 0
    ckpt.write_text(json.dumps(rewrite(json.loads(ckpt.read_text()))))
    capsys.readouterr()
    out = workdir / "scores.csv"
    assert main(["predict", "--model", str(ckpt), "--manifest", m,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: malformed checkpoint: {message}"]
    assert not out.exists()


def _reencoded(edit):
    """An edit that makes ``edit`` on a checkpoint's version-1 form and
    encodes the result as version 2 again."""
    def apply(obj):
        obj = checkpoint_as_version(obj, 1)
        edit(obj)
        return checkpoint_as_version(obj, 2)
    return apply


def _first_record(obj, data):
    """``obj`` with its first parameter's ``data`` set to ``data(old)``."""
    record = next(iter(obj["params"].values()))
    record["data"] = data(record["data"])
    return obj


def _base64_in_version1(obj):
    encoded = next(iter(obj["params"].values()))["data"]
    return _first_record(checkpoint_as_version(obj, 1), lambda _: encoded)


# classifier.W of the avg-pool head is 3 x 5: 15 float64 values, 120 bytes
@pytest.mark.parametrize("model, edit, message", [
    ("video", _reencoded(lambda obj: _first_param(obj).__setitem__(
        0, float("nan"))), "parameter 'classifier.W': data must be finite"),
    ("video", _reencoded(lambda obj: _first_param(obj).__setitem__(
        3, float("-inf"))), "parameter 'classifier.W': data must be finite"),
    ("mlp", _reencoded(lambda obj: obj["extra"]["running_mean"]["data"]
                       .__setitem__(0, float("inf"))),
     "running_mean: data must be finite"),
    ("mlp", _reencoded(lambda obj: obj["extra"]["running_var"]["data"]
                       .__setitem__(0, -1.0)),
     "running_var must be nonnegative"),
    ("video", lambda obj: _first_record(obj, lambda d: d[:8] + "*" + d[8:]),
     "parameter 'classifier.W': data must be valid base64"),
    ("video", lambda obj: _first_record(obj, lambda d: base64.b64encode(
        base64.b64decode(d)[:-8]).decode()),
     "parameter 'classifier.W': data must hold 120 bytes, got 112"),
    ("video", lambda obj: _first_record(obj, lambda d: [0.0] * 15),
     "parameter 'classifier.W': data must be a base64 string"),
    ("video", _base64_in_version1,
     "parameter 'classifier.W': data must be a list of 15 values"),
], ids=["nan-weight", "inf-weight", "inf-running-mean",
        "negative-running-var", "not-base64", "short-bytes",
        "list-in-version-2", "string-in-version-1"])
def test_malformed_version2_array_exits_one_naming_it(
        workdir, capsys, model, edit, message):
    _predict_from_rewritten(workdir, capsys, model, edit, message)


@pytest.mark.parametrize("train", [
    ["train-video", "--pooling", "lstm"],
    ["train-audio", "--model", "forest"],
    ["train-audio", "--model", "mlp"]], ids=["lstm", "forest", "mlp"])
def test_train_reruns_write_identical_checkpoints(workdir, capsys, train):
    m = str(workdir / "data.jsonl")
    paths = [workdir / f"run{i}.json" for i in range(2)]
    for path in paths:
        assert main(train + ["--manifest", m, "--config",
                             str(workdir / "fast.cfg"), "--seed", "3",
                             "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert json.loads(paths[0].read_text())["version"] == 2


@pytest.mark.parametrize("clip_id", [None, 17], ids=["null", "integer"])
def test_manifest_id_must_be_a_string(workdir, capsys, clip_id):
    records = [json.loads(line) for line in
               (workdir / "data.jsonl").read_text().splitlines()]
    records[2]["id"] = clip_id
    bad = workdir / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    out = workdir / "report.txt"
    assert main(["validate", "--manifest", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: line 3: id must be a string, got {json.dumps(clip_id)}"]
    assert not out.exists()
