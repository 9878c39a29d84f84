import json
import os
import re

import numpy as np
import pytest

from smallclip.data import (
    Clip, atomic_write_text, build_dataset, class_names,
    load_dataset, load_distribution, packaged_distribution_path, quoted,
    validate_dataset, write_dataset,
)
from smallclip.errors import DataValidationError, ParseError
from conftest import make_clip, dataset_from_counts

AFEW_TRAIN = (133, 74, 81, 150, 117, 144, 74)
AFEW_VAL = (64, 40, 46, 63, 61, 63, 46)
AFEW_TEST = (99, 40, 70, 144, 80, 191, 29)


def test_class_names():
    assert class_names(7) == ("Angry", "Disgust", "Fear", "Happy", "Sad",
                              "Neutral", "Surprise")
    assert class_names(3) == ("class0", "class1", "class2")
    assert len(set(class_names(7))) == 7


def test_load_small_manifest(tmp_path, rng):
    clips = [make_clip(rng, "a", L=3, d_feature=4), make_clip(rng, "b", L=3, d_feature=4)]
    path = tmp_path / "d.jsonl"
    write_dataset(build_dataset(clips), path)
    ds = load_dataset(path)
    assert len(ds.clips) == 2
    assert ds.dims == (4, 7, None)


def test_round_trip_bit_exact(tmp_path, rng):
    # Awkward values: subnormals, negative zero, long mantissas.
    clips = [make_clip(rng, f"c{i}", L=4, d_feature=3, d_audio=5, label=i % 7)
             for i in range(5)]
    clips[0].features[0, 0] = 5e-324
    clips[0].features[0, 1] = -0.0
    clips[0].scores[0, 0] = 1 / 3
    path = tmp_path / "d.jsonl"
    ds = build_dataset(clips)
    write_dataset(ds, path)
    ds2 = load_dataset(path)
    for c1, c2 in zip(ds.clips, ds2.clips):
        assert c1.id == c2.id and c1.split == c2.split and c1.label == c2.label
        np.testing.assert_array_equal(c1.features, c2.features)
        np.testing.assert_array_equal(c1.scores, c2.scores)
        np.testing.assert_array_equal(c1.av, c2.av)
        np.testing.assert_array_equal(c1.audio, c2.audio)
    # write(load(write(d))) is byte-identical
    path2 = tmp_path / "d2.jsonl"
    write_dataset(ds2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_malformed_line_names_line_number(tmp_path, rng):
    path = tmp_path / "d.jsonl"
    good = build_dataset([make_clip(rng, "a")])
    write_dataset(good, path)
    text = path.read_text() + "{not json\n"
    path.write_text(text)
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path)


def test_missing_field_names_line_number(tmp_path, rng):
    path = tmp_path / "d.jsonl"
    obj = {"id": "x", "split": "train", "label": 0, "audio": None}  # no frames
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ParseError, match="line 1"):
        load_dataset(path)


@pytest.mark.parametrize("label", [1.7, 1.0, True, "1", [1]],
                         ids=["float", "whole-float", "bool", "string", "list"])
def test_non_integer_label_names_line_number(tmp_path, rng, label):
    path = tmp_path / "d.jsonl"
    write_dataset(build_dataset([make_clip(rng, "a"), make_clip(rng, "b")]),
                  path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["label"] = label
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 2: label must be an integer"):
        load_dataset(path)


def test_numbers_beyond_float_range_are_parse_errors(tmp_path, rng):
    path = tmp_path / "d.jsonl"
    write_dataset(build_dataset([make_clip(rng, "a", d_audio=3)]), path)
    obj = json.loads(path.read_text())
    obj["audio"][0] = 10 ** 400  # a JSON integer no float can hold
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ParseError, match=r"^line 1: malformed clip record "
                                         r"\(int too large"):
        load_dataset(path)
    # more digits than Python converts to an int
    path.write_text('{"id": "a", "label": ' + "1" * 5000 + "}\n")
    with pytest.raises(ParseError, match=r"^line 1: invalid JSON \(Exceeds"):
        load_dataset(path)


def test_dimension_mismatch_names_clip(tmp_path, rng):
    clips = [make_clip(rng, "good", n_classes=7), make_clip(rng, "bad", n_classes=3)]
    with pytest.raises(DataValidationError, match="bad"):
        build_dataset(clips)


def test_empty_clip_rejected(rng):
    c = make_clip(rng, "good")
    empty = Clip("empty", "train", np.zeros((0, 4)), np.zeros((0, 7)),
                 np.zeros((0, 2)))
    with pytest.raises(DataValidationError, match="empty"):
        build_dataset([c, empty])


def test_duplicate_ids_rejected(rng):
    with pytest.raises(DataValidationError, match="duplicate"):
        build_dataset([make_clip(rng, "a"), make_clip(rng, "a")])


@pytest.mark.parametrize("cid", ["a,b", "a\nb", "a\r", "\u2028a"])
def test_ids_no_score_table_can_hold_rejected(rng, cid):
    with pytest.raises(DataValidationError,
                       match=f"^clip {re.escape(repr(cid))}: a score table "
                             f"cannot hold an id with a comma or a line "
                             f"break$"):
        build_dataset([make_clip(rng, "a"), make_clip(rng, cid)])
    ok = build_dataset([make_clip(rng, ""), make_clip(rng, "a b;\t")])
    assert [c.id for c in ok.clips] == ["", "a b;\t"]


def test_non_finite_rejected(rng):
    c = make_clip(rng, "a")
    c.features[0, 0] = np.nan
    with pytest.raises(DataValidationError, match="a"):
        build_dataset([c])


def test_table1_train_total():
    ds = dataset_from_counts({"train": AFEW_TRAIN})
    assert ds.distribution("train").total == 773
    np.testing.assert_array_equal(ds.distribution("train").counts, AFEW_TRAIN)


def test_validation_report_totals():
    ds = dataset_from_counts({"train": AFEW_TRAIN, "val": AFEW_VAL, "test": AFEW_TEST})
    report = validate_dataset(ds)
    assert report.split_counts["train"].total == 773
    assert report.split_counts["val"].total == 383
    assert report.split_counts["test"].total == 653
    assert "773" in report.to_text()


def test_labeled_keeps_the_clips_a_modality_covers(rng):
    ds = build_dataset([make_clip(rng, "a", d_audio=3),
                        make_clip(rng, "no-audio"),
                        make_clip(rng, "unlabeled", d_audio=3, label=None),
                        make_clip(rng, "v", split="val", d_audio=3),
                        make_clip(rng, "v-no-audio", split="val")])

    def ids(clips):
        return [c.id for c in clips]

    assert ids(ds.labeled()) == ["a", "no-audio", "v", "v-no-audio"]
    assert ids(ds.labeled(modality="audio")) == ["a", "v"]
    assert ids(ds.labeled("train")) == ["a", "no-audio"]
    assert ids(ds.labeled("train", "audio")) == ["a"]
    assert ids(ds.labeled("val", "video")) == ["v", "v-no-audio"]
    assert ids(ds.labeled("val", "audio")) == ["v"]


def test_quoted_cuts_a_long_quote_to_its_limit():
    assert quoted("a" * 58) == repr("a" * 58)  # 60 characters with quotes
    assert quoted("a" * 59) == "'" + "a" * 59 + "..."
    assert quoted("x=1", limit=4) == "'x=1..."
    assert len(quoted("\u2028" * 1000)) == 63


def test_validation_report_audio_and_lengths(rng):
    ds = build_dataset([make_clip(rng, "a", L=1)])
    report = validate_dataset(ds)
    assert report.length_histogram == {1: 1}
    assert report.n_missing_audio == 1
    assert report.missing_audio_fraction == 1.0


def test_distribution_file_round_trip(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("class,count\n" + "".join(
        f"{name},{n}\n" for name, n in zip(class_names(7), AFEW_TEST)))
    loaded = load_distribution(path)
    np.testing.assert_array_equal(loaded.counts, AFEW_TEST)
    assert loaded.total == 653


def test_packaged_afew_test_distribution():
    dist = load_distribution(packaged_distribution_path())
    np.testing.assert_array_equal(dist.counts, AFEW_TEST)
    assert dist.total == 653


def test_distribution_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("klass,n\nAngry,1\n")
    with pytest.raises(ParseError):
        load_distribution(path)


def test_atomic_write_failure_leaves_nothing_behind(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(ParseError, match="cannot write .*taken"):
        atomic_write_text(target, "text\n")
    with pytest.raises(ParseError, match="cannot write"):
        atomic_write_text(tmp_path / "missing" / "out.txt", "text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target.iterdir()) == []


def test_atomic_write_replaces_file_with_umask_mode(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    atomic_write_text(path, "new\r\nline\n")
    assert path.read_bytes() == b"new\r\nline\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
