"""Tests of the benchmark's own logic. Run with

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import (ROOT, SRC, WORKLOADS, check_score_table,  # noqa: E402
                       compare_hashes, held_out_accuracy, run_command, sha256,
                       subprocess_env, synth_argv)

sys.path.insert(0, str(SRC))


def test_self_time_subtracts_children():
    spans = [(1, 0, "parent", 0.0, 10.0),
             (2, 1, "child", 1.0, 4.0),
             (3, 1, "child", 5.0, 9.0)]
    selfs = self_times(spans)
    assert selfs["parent"] == pytest.approx(3.0)
    assert selfs["child"] == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    # two worker threads' items under one parallel_map span
    spans = [(1, 0, "map", 0.0, 10.0),
             (2, 1, "item", 1.0, 6.0),
             (3, 1, "item", 4.0, 8.0)]
    assert self_times(spans)["map"] == pytest.approx(3.0)


def _table(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    return path


def test_checker_accepts_a_valid_table(tmp_path):
    path = _table(tmp_path, "clip_id,p0,p1\na,0.25,0.75\nb,1.0,0.0\n")
    assert check_score_table(path, ["a", "b"]) == []


def test_checker_rejects_a_missing_clip(tmp_path):
    path = _table(tmp_path, "clip_id,p0,p1\na,0.25,0.75\n")
    problems = check_score_table(path, ["a", "b"])
    assert len(problems) == 1 and "1 missing" in problems[0]


def test_checker_rejects_a_row_not_summing_to_one(tmp_path):
    path = _table(tmp_path, "clip_id,p0,p1\na,0.5,0.6\nb,0.5,0.5\n")
    problems = check_score_table(path, ["a", "b"])
    assert len(problems) == 1 and "sums to 1" in problems[0]


def test_checker_rejects_negative_and_non_finite_scores(tmp_path):
    path = _table(tmp_path, "clip_id,p0,p1\na,-0.5,1.5\n")
    assert "negative" in check_score_table(path, ["a"])[0]
    path = _table(tmp_path, "clip_id,p0,p1\na,nan,0.5\n")
    assert "non-finite" in check_score_table(path, ["a"])[0]


def test_checker_rejects_bytes_changed_between_runs(tmp_path):
    first = _table(tmp_path, "clip_id,p0,p1\na,0.25,0.75\n")
    reference = {"t.csv": sha256(first)}
    assert compare_hashes(reference, {"t.csv": sha256(first)}) == []
    second = _table(tmp_path, "clip_id,p0,p1\na,0.25,0.7500000000000001\n")
    problems = compare_hashes(reference, {"t.csv": sha256(second)})
    assert problems == ["t.csv: bytes changed between runs"]


def test_held_out_accuracy_reads_only_what_the_operation_reports(tmp_path):
    recipe = WORKLOADS["s3-large"]
    stdout = "recipe submission3: 6 members fused (mean)\n" \
             "held-out accuracy: 0.9714\n"
    assert held_out_accuracy(recipe, tmp_path, stdout) == 0.9714
    roundtrip = WORKLOADS["roundtrip-hard"]
    (tmp_path / "report.csv").write_text(
        "metric,value,n\noverall,0.95,140\nweighted,0.9,140\n"
        "Angry,np.float64(1.0),20\n")
    assert held_out_accuracy(roundtrip, tmp_path, "") == 0.95


def test_workload_generation_is_deterministic_in_its_seed(tmp_path):
    workload = WORKLOADS["s6-small-j2"]
    env = subprocess_env()
    digests = []
    for i, seed in enumerate((3, 3, 4)):
        out = tmp_path / str(i)
        out.mkdir()
        cmd = run_command(synth_argv(workload, seed), out, env,
                          out / "synth.log", 60)
        assert cmd.code == 0
        digests.append(sha256(out / "data.jsonl"))
    assert digests[0] == digests[1] != digests[2]


def test_tracer_wraps_every_name_and_restores_them():
    from smallclip import cli, nn, recipes, video

    originals = (video.train_video_model, nn.sigmoid, nn.lstm_forward)
    tracer = Tracer()
    tracer.install()
    try:
        assert recipes.train_video_model is not originals[0]
        assert cli.train_video_model is video.train_video_model
        assert video.sigmoid is nn.sigmoid is not originals[1]
        assert video.lstm_forward is nn.lstm_forward is not originals[2]
    finally:
        tracer.uninstall()
    assert recipes.train_video_model is cli.train_video_model is originals[0]
    assert (video.sigmoid, video.lstm_forward) == originals[1:]


def test_tracer_records_nested_spans_and_counts():
    from smallclip.data import Clip
    from smallclip.video import VideoModel

    rng = np.random.default_rng(0)
    clip = Clip("c", "val", rng.standard_normal((5, 4)),
                np.full((5, 3), 1 / 3), rng.standard_normal((5, 2)))
    model = VideoModel("avg-pool", 4, 4, 3, rng=rng)
    tracer = Tracer()
    tracer.install()
    try:
        model.predict(clip)
    finally:
        tracer.uninstall()
    by_layer = {layer: (sid, parent) for sid, parent, layer, _, _
                in tracer.spans}
    predict_id = by_layer["video.predict"][0]
    assert by_layer["video.predict"][1] == 0
    assert by_layer["video.select_frames"][1] == predict_id
    assert by_layer["nn.softmax"][1] == predict_id
    metrics = layer_metrics(tracer)
    assert metrics["video.predict_calls"] == 1
    assert metrics["video.select_frames_calls"] == 1
    assert metrics["forest.trees"] == 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
